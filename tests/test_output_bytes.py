"""Pinned stdout bytes: SHA-256 and exit code of every table kind and format,
and of the full identity suite at n = 4 and 30.

A change of representation in the arithmetic kernel must never alter a
printed coefficient.  Each case runs the CLI in process and compares a
hash of its stdout with the one recorded before the kernel was last
changed; an intended change of output re-records only the cases it moves.
"""

import hashlib

import pytest

from qeuler.cli import main

# (argv, exit code, SHA-256 of stdout)
PINNED = [
    ("table qeuler --n-max 0 --format text", 0,
     "2a1c865fe6237ce42a3250736741ce756c37149b0dce6ef0afd9ff8dfaf74d4c"),
    ("table qeuler --n-max 1 --format text", 0,
     "e3a243461bd259c3031be0fed15ee7b2845526c44363da6bb0ea37f8d4b55316"),
    ("table qeuler --n-max 8 --format text", 0,
     "f9399437fd853962d4df39baeccc99210b743b915551200ca78e9374662dd3ee"),
    ("table qeuler --n-max 0 --format json", 0,
     "0be64c9f4d2e3f612f134769126f7fc5214cbb8d80d083e90f3a6be257179c7d"),
    ("table qeuler --n-max 1 --format json", 0,
     "dc3845f9cda4213bb6564920d32f716334e85a06bcdd5070b9bb73b1296e77a8"),
    ("table qeuler --n-max 8 --format json", 0,
     "fb0a0615c995679d3e3a89b9ab582c57d45b59e636109c01867ab57801ca54bc"),
    ("table qeuler --n-max 0 --format latex", 0,
     "d1f3f76b51331bdb7d684cde857930a10f0eed85607e4eb53470fd46b6ed6e7a"),
    ("table qeuler --n-max 1 --format latex", 0,
     "05efd12a8464a8731f77b24aea5470967e422092d2cb892760b5ab5525236136"),
    ("table qeuler --n-max 8 --format latex", 0,
     "c71b88d1c9a5ce248e8580ef2f6ef27180f41b26896b8086527810f486254595"),
    ("table frobenius --n-max 0 --format text", 0,
     "2a1c865fe6237ce42a3250736741ce756c37149b0dce6ef0afd9ff8dfaf74d4c"),
    ("table frobenius --n-max 1 --format text", 0,
     "e3a243461bd259c3031be0fed15ee7b2845526c44363da6bb0ea37f8d4b55316"),
    ("table frobenius --n-max 8 --format text", 0,
     "f9399437fd853962d4df39baeccc99210b743b915551200ca78e9374662dd3ee"),
    ("table frobenius --n-max 0 --format json", 0,
     "9d562d77f45c5b23e92dd43c85efffb3378fa5386c141a97805576d8333cea3a"),
    ("table frobenius --n-max 1 --format json", 0,
     "c64d740f1b8a8336eae00cdc7c40ce7eb739a8d97c3feeba5fae226365403108"),
    ("table frobenius --n-max 8 --format json", 0,
     "ab549ea41eaf589cffef8ab2e1cfab6e8ceb7e73c3f4b80a5e6e2e1b0ca8f1b2"),
    ("table frobenius --n-max 0 --format latex", 0,
     "c0c38102ec3e598b10b8ea9cf53551d85c4c956733ce282f09496dc8a7927dc0"),
    ("table frobenius --n-max 1 --format latex", 0,
     "a4dfd1c1c6d09d9e700a55fd62a19c708942e4de4d861c9e367af367e52eb677"),
    ("table frobenius --n-max 8 --format latex", 0,
     "424350bf86c9b057f8ef69c9b8e0442dc35ed3fe8895fd93c80e652b2c5787c9"),
    ("table weighted --n-max 0 --format text --alpha 2", 0,
     "2a1c865fe6237ce42a3250736741ce756c37149b0dce6ef0afd9ff8dfaf74d4c"),
    ("table weighted --n-max 1 --format text --alpha 2", 0,
     "d2e69cd35729604f7d4142ecc6194820cb19d5bab34346fc04d1ed29194cb935"),
    ("table weighted --n-max 8 --format text --alpha 2", 0,
     "b75d992a310824b3072afc117deef3432b56bc2dc087cb7ec54ad61187332545"),
    ("table weighted --n-max 0 --format json --alpha 2", 0,
     "bb10e19c1b7918949b989de0fb1474c5b97132c9a1af4dc4c25b3fd97bc24472"),
    ("table weighted --n-max 1 --format json --alpha 2", 0,
     "c87924d53ef27a60c8f9d3030a0c319d733d933457f8010a7b86ed7ddab5db00"),
    ("table weighted --n-max 8 --format json --alpha 2", 0,
     "d19055a621a018e76882700e639bb2818e6292086521f23f5e085f8fca0bd11f"),
    ("table weighted --n-max 0 --format latex --alpha 2", 0,
     "705dd0c4df380c43a687ebd64eeaf813643241951902b60677c77c2a316dc10c"),
    ("table weighted --n-max 1 --format latex --alpha 2", 0,
     "749215c90ef7b96dddf7f77ac890d0eef7df386e5c801e4e724fee542146a349"),
    ("table weighted --n-max 8 --format latex --alpha 2", 0,
     "b0dcbccb06f4726f2d728c95ae851df8ce42c3ee2245fcee56d4e5e1ca22de16"),
    ("table qeuler-poly --n-max 0 --format text", 0,
     "2a1c865fe6237ce42a3250736741ce756c37149b0dce6ef0afd9ff8dfaf74d4c"),
    ("table qeuler-poly --n-max 1 --format text", 0,
     "b81d22c6995ee0af721cdc90c15d09ffe252c9e2258ab8d95287ea298681404c"),
    ("table qeuler-poly --n-max 8 --format text", 0,
     "3bc5e4b90de34822a32e6e713b9c5afc0353cf4ee46e924c415d66598556beac"),
    ("table qeuler-poly --n-max 0 --format json", 0,
     "bb57e3c2ad45660303562253bea50a35b2685a40749c0e6285e90e01807f9570"),
    ("table qeuler-poly --n-max 1 --format json", 0,
     "2831bdd5a9d9246d31284e0f95b82b4e75063a1e64dff0d867dc8a91b495261d"),
    ("table qeuler-poly --n-max 8 --format json", 0,
     "27a72227c1e4f12e504bd0669fb3ca31dd3a5bc55a19638ba1633ce2cef68a41"),
    ("table qeuler-poly --n-max 0 --format latex", 0,
     "ba0a784b50e46f9ecb743a9337a3b56d214c676c2dcb3efee82e4612a7632a32"),
    ("table qeuler-poly --n-max 1 --format latex", 0,
     "2a8cfe3933810be0fa04456fb40584805dec9823a0f4db0caa038a8266e6be39"),
    ("table qeuler-poly --n-max 8 --format latex", 0,
     "e321a8da3ba915674dc38934e64753eddbbf1b060c3774c5081f7f05b5f41b00"),
    ("verify --suite all --n-max 4 --json", 0,
     "3d79f3c08b10b94efe0699c22b3d5d47999999dea43d1c15cd48c1b0bb4651cc"),
    ("verify --suite all --n-max 30 --json", 0,
     "3beff66c6eeb663a7a21c1e536d6ec5f6f55afb7562a3d202a9e430971c99950"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=[row[0] for row in PINNED])
def test_stdout_bytes_pinned(capsys, argv, code, digest):
    assert main(argv.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
