"""Pinned stdout bytes: SHA-256 and exit code of every table kind and format
at n <= 8 and at the benchmark's table sizes, of the weighted tables at
alpha = 4, 5 and 6, of the Frobenius table at n = 60, of the full identity
suite at n = 4 and 30, of the weighted suite at n = 30, of cor3 (``thm3``) at
n = 40, of thm4 at n = 40, of the erratum suite's failing witnesses, of thm8's
empty report at n = 0, and of ``padic`` at the benchmark's three sizes, at
K = 1, at a negative q-offset and as a JSON record of four levels.

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
    ("table qeuler --n-max 40 --format text", 0,
     "b1d8ac696eb1a7d805bcd2ab044f1de0544172a627f8104dffca1fa29a541496"),
    ("table qeuler --n-max 40 --format json", 0,
     "575974eba08753c194bb60794a0baf18d28eeb6d21ec14d6bc66a6760125b8f6"),
    ("table qeuler --n-max 40 --format latex", 0,
     "66f137822ccd62d4004d4ce17ffe7a7737ae9870e6cf888a820f378134e03aba"),
    ("table weighted --alpha 3 --n-max 30 --format text", 0,
     "2d57a0a017484873d54745ea267dc93bdbfb4956da195f96ef0fec75db833bfb"),
    ("table weighted --alpha 3 --n-max 30 --format json", 0,
     "f2277160488eb439796ae20986f813bd9c9f7b2a62aa63db9a97eb49c560a6fb"),
    ("table weighted --alpha 3 --n-max 30 --format latex", 0,
     "44d649dcf090c22cf5942e4b34f4a505e6681fa5e08d986b564899e1ce542106"),
    ("table weighted --alpha 1 --n-max 30 --format json", 0,
     "a18923fe6f88affa4f164bd29e5a32d3ca1b0f6d79ba6ce250df4dae340f15cf"),
    ("table weighted --alpha 2 --n-max 30 --format json", 0,
     "64dcc9a4f0c38403ff6c8bb09af47222402226782e27ee1aa4802e0be3902bb6"),
    ("table weighted --alpha 4 --n-max 20 --format json", 0,
     "e60ac8a1417236be61a4d99c7f1ac7b3fc9813a3b54240ec4402fef130faf6a4"),
    ("table weighted --alpha 5 --n-max 20 --format latex", 0,
     "49bbc664c1fac8d3daa0a2fcd536197d298c26139c61b787f7588a3a2b4682b1"),
    ("table weighted --alpha 6 --n-max 16 --format text", 0,
     "27b26228dfebef5f6cea0c3c8d2d5dc4b54c2624f28fe51a961358e1d2656fa8"),
    ("table frobenius --n-max 30 --format text", 0,
     "f1c617eee5be2a121ee50ccd9277937f878bcdd152204aa326c67f208275191c"),
    ("table frobenius --n-max 30 --format json", 0,
     "c62c53559a28b640c18811d7ccf0356938b1ba8b2615eb322adc48f10a6b1e99"),
    ("table frobenius --n-max 30 --format latex", 0,
     "265097eeb7bd5a4fa49bfad89c1aa713e005a9931acc882fd3a119beb37ca8ea"),
    ("table frobenius --n-max 60 --format json", 0,
     "2063b9182becb03aa140c6df337daff394f76561510614b5b0348d30ab10167b"),
    ("table qeuler-poly --n-max 3 --format json", 0,
     "ec09a46f8ed83a5b6489146ab3cd6d5a2882551f39221a79efae414dc1658efd"),
    ("table qeuler-poly --n-max 20 --format text", 0,
     "79ac9135ce0777dccf925d3169aac86e948beb4f57e216398bfbfb83ae62c1e6"),
    ("table qeuler-poly --n-max 20 --format json", 0,
     "a3a0d15c97ae20bbff20d222595af9daf875b8d155d3d0531611039ea70003af"),
    ("table qeuler-poly --n-max 20 --format latex", 0,
     "a9eb191148267426c908f35e9c2d04275f050fca63160a26c302fb749d530672"),
    ("verify --suite all --n-max 4 --json", 0,
     "3d79f3c08b10b94efe0699c22b3d5d47999999dea43d1c15cd48c1b0bb4651cc"),
    ("verify --suite all --n-max 30 --json", 0,
     "3beff66c6eeb663a7a21c1e536d6ec5f6f55afb7562a3d202a9e430971c99950"),
    ("verify --suite weighted --n-max 30 --json", 0,
     "05c21eab5c28e193765b2f07fc5b1965605284466f5a3e2ee5e1af403bed6c1e"),
    ("verify --suite thm3 --n-max 40 --json", 0,
     "f51b67a30cb7f97d9fa243a424e7417a2270fe96aeda849503a7755a3b326490"),
    ("verify --suite erratum --json", 0,
     "2207ad0710e9acbe9b9c3d9e68aa87b8351da5f911ba354c6cf716d0cc03fe05"),
    ("verify --suite thm8 --n-max 0 --json", 0,
     "b195ae1c9f70fc142c1764773b1d9af3bc5fca2a06a1ddb6795b28dc656cbe20"),
    ("verify --suite thm4 --n-max 40", 0,
     "8e88ad47a1a678b4a1ede0145b8d6cf31e561f6e11deef969cb7b882b054a8a8"),
    ("padic --n 3 --p 3 --N-max 6", 1,
     "cfc0b4c7d7334f245ef6633a7e0a91aa79aa33e2bf3636d000520f8b8c849be1"),
    ("padic --n 4 --p 5 --K 20 --N-max 9 --json", 0,
     "89c029fec08faa8b1e521f70878d56be7eee240ef75a71875d4e8979d244de1f"),
    ("padic --n 6 --p 3 --K 20 --N-max 13 --json", 0,
     "0e64c8585f48b725c8cabfb8ff1410a3cc76698014e08a853449414cf6cc8234"),
    ("padic --n 2 --p 5 --N-max 4 --json", 0,
     "ffd0f27865f61dea990afeff039b6ec6f072cc7b0085d10a16149a1463ccc92c"),
    ("padic --n 2 --p 7 --K 1 --N-max 4 --json", 0,
     "62959649615b1475bf310dccdd600ea5b9fa51b812648c0d111c2b05e266a0d7"),
    ("padic --n 5 --p 5 --q-offset -2 --K 3 --N-max 5", 0,
     "a867acd6fba3ef11a518af28def1c02ead74999f5b73c478d4ad82204d5cc947"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=[row[0] for row in PINNED])
def test_stdout_bytes_pinned(capsys, argv, code, digest):
    assert main(argv.split()) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# The argparse text of every --help at COLUMNS=80: (argv, stdout)
HELP = [
    ("--help",
     "usage: qeuler [-h] {table,verify,padic} ...\n"
     "\n"
     "Exact q-Euler / Frobenius-Euler tables, identity verification, and p-adic\n"
     "convergence experiments.\n"
     "\n"
     "positional arguments:\n"
     "  {table,verify,padic}\n"
     "    table               print a sequence or polynomial table\n"
     "    verify              run an identity suite\n"
     "    padic               finite-level fermionic integral convergence\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"),
    ("table --help",
     "usage: qeuler table [-h] --n-max N_MAX [--alpha ALPHA]\n"
     "                    [--format {text,json,latex}]\n"
     "                    {qeuler,frobenius,weighted,qeuler-poly}\n"
     "\n"
     "positional arguments:\n"
     "  {qeuler,frobenius,weighted,qeuler-poly}\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --n-max N_MAX\n"
     "  --alpha ALPHA         integer weight >= 1 (kind 'weighted' only)\n"
     "  --format {text,json,latex}\n"),
    ("verify --help",
     "usage: qeuler verify [-h]\n"
     "                     [--suite {all,thm1,thm2,thm3,thm4,thm5,thm6,thm7,thm8,cor3,classical,erratum,weighted}]\n"
     "                     [--n-max N_MAX] [--json]\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n"
     "  --suite {all,thm1,thm2,thm3,thm4,thm5,thm6,thm7,thm8,cor3,classical,erratum,weighted}\n"
     "  --n-max N_MAX         largest n checked (default 20); cost grows faster than\n"
     "                        linearly (timings in the README)\n"
     "  --json\n"),
    ("padic --help",
     "usage: qeuler padic [-h] --n N --p P [--q-offset Q_OFFSET] [--K K]\n"
     "                    [--N-max N_MAX] [--json]\n"
     "\n"
     "options:\n"
     "  -h, --help           show this help message and exit\n"
     "  --n N                moment index\n"
     "  --p P                an odd prime\n"
     "  --q-offset Q_OFFSET  q = 1 + offset*p\n"
     "  --K K\n"
     "  --N-max N_MAX\n"
     "  --json\n"),
]

_TABLE_USAGE = (
    "usage: qeuler table [-h] --n-max N_MAX [--alpha ALPHA]\n"
    "                    [--format {text,json,latex}]\n"
    "                    {qeuler,frobenius,weighted,qeuler-poly}\n"
)
_VERIFY_USAGE = (
    "usage: qeuler verify [-h]\n"
    "                     [--suite {all,thm1,thm2,thm3,thm4,thm5,thm6,thm7,thm8,cor3,classical,erratum,weighted}]\n"
    "                     [--n-max N_MAX] [--json]\n"
)
_PADIC_USAGE = (
    "usage: qeuler padic [-h] --n N --p P [--q-offset Q_OFFSET] [--K K]\n"
    "                    [--N-max N_MAX] [--json]\n"
)

# Usage errors at COLUMNS=80, found by argparse or by the command: (argv, stderr), exit code 2
USAGE_ERRORS = [
    ("table qeuler --n-max -1", _TABLE_USAGE + "qeuler table: error: --n-max must be >= 0\n"),
    ("table weighted --n-max 3",
     _TABLE_USAGE + "qeuler table: error: --alpha is required for kind 'weighted'\n"),
    ("table qeuler --n-max 3 --alpha 2",
     _TABLE_USAGE + "qeuler table: error: --alpha only applies to kind 'weighted'\n"),
    ("verify --suite nope",
     _VERIFY_USAGE + "qeuler verify: error: argument --suite: invalid choice: 'nope' (choose from "
     "'all', 'thm1', 'thm2', 'thm3', 'thm4', 'thm5', 'thm6', 'thm7', 'thm8', 'cor3', "
     "'classical', 'erratum', 'weighted')\n"),
    ("padic --n 2 --p 9", _PADIC_USAGE + "qeuler padic: error: p must be an odd prime, got 9\n"),
    ("padic --n 2 --p 3 --N-max 0", _PADIC_USAGE + "qeuler padic: error: --N-max must be >= 1\n"),
]


def _main_exit(argv):
    try:
        return main(argv.split())
    except SystemExit as exc:  # argparse's --help and usage errors
        return exc.code


@pytest.mark.parametrize("argv, text", HELP, ids=[row[0] for row in HELP])
def test_help_text_pinned(capsys, monkeypatch, argv, text):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal's width
    assert _main_exit(argv) == 0
    assert capsys.readouterr() == (text, "")


@pytest.mark.parametrize("argv, text", USAGE_ERRORS, ids=[row[0] for row in USAGE_ERRORS])
def test_usage_error_text_pinned(capsys, monkeypatch, argv, text):
    monkeypatch.setenv("COLUMNS", "80")
    assert _main_exit(argv) == 2
    assert capsys.readouterr() == ("", text)
