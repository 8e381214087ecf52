"""Golden outputs of the README's CLI examples.

Each digest is the SHA-256 of the command's standard output with
--no-timing, recorded before the commands were folded into one `main` and
one emitter; the families --count 24 digest, before alpha, beta and gamma
were computed in closed form; the search --primes 2,3 digest, before the box
was scanned in integers over one common denominator; the families --primes 2
digest, before the three families became one walk.  A refactor that
changes any byte of a report fails here.
"""

import hashlib
import json
import shlex

import pytest

from doublepell.cli import main

GOLDEN = [
    ("pell 2 1 --bound 100", "json",
     "54a40736e3ea2adf74cf82dc1655ad963b8db6ed4bbf62ff20633e411dafdef3"),
    ("pell 2 1 --bound 100", "csv",
     "01799230e2c3b922e70f7de1592e962eded6a59f29d4d053a6337fdbf44353f4"),
    ("families --curve 2,3,1,1 --count 3", "json",
     "fae75c7072b4592887d6ade3ca4c6deb60a28b2cca6caf0fffbe50b14ba873ef"),
    ("families --curve 2,3,1,1 --count 3", "csv",
     "8664b2745ce95c3681b6affee03a7a3f2184b45e4d387d79f4ad67b48324727e"),
    ("search --curve 2,3,1,1 --eps-bound 15 --coeff-bound 5", "json",
     "5c657b1e9c3172fd4488bf61e6854140a66e1a4c581f057ea8371fb1718478ca"),
    ("search --curve 2,3,1,1 --eps-bound 15 --coeff-bound 5", "csv",
     "418af1e9b9a68c27362c2e02c95a1e193552b131e784b55aa1569b4cb08f6420"),
    ('classify --curve 2,3,1,1 --point "13;2,0;3,0;0,1"', "json",
     "8aab395c42f91e311bca0e03abcaeb8b2fe07f04327f0c01821f8dc2fd17fca0"),
    ('classify --curve 2,3,1,1 --point "13;2,0;3,0;0,1"', "csv",
     "386e19bc575c7dd219a99cd5a10285aa59a116bbb3ac23d2590d6e167c088ce1"),
    ("verify --curve 2,3,1,1 --count 50", "json",
     "a45bc540caa7d3b90dd737caa7f49dc0782b4f98bdaaef750ff853e8fa65d327"),
    ("verify --curve 2,3,1,1 --count 50", "csv",
     "22ac519b7835320e4fd491cf008dcb6b7eb52fba7c7f69e4c7b6d9bb94828dc6"),
    ("bounds --s 1 --H 1", "json",
     "23094af964001f9b652f007f337497ec8138c94c32fa6569537cd336253ace82"),
    ("bounds --s 1 --H 1", "csv",
     "eb92cade8886056be5f2e8dbd92bb195d701d12470fa51791ab96c3643925f39"),
    # Far family points, whose printed invariants carry the 40-digit
    # radicands that --count 3 never reaches.
    ("families --curve 2,3,1,1 --count 24", "json",
     "b44660d04de617b20139f7bdd29e0958e3ed1da76494b3fce387a5920a8db17a"),
    # A box with S-denominators 1, 2, 3, 4, 6 and 8, over their lcm 24.
    ("search --curve 2,3,1,1 --primes 2,3 --coeff-bound 8", "json",
     "4e66b171ead724832d41a1218c6a604f2db80da167facdee679d36a967dd2cab"),
    # A yz family whose x^2 = (y^2 - c)/a has denominator 2, admitted by
    # S = {2}: x = sqrt(2k)/2.
    ("families --curve 4,2,2,-1 --count 4 --primes 2", "json",
     "810b4423bc6409d646d67edda221fc937ddb7bea88f2fb73d0edcaf6e2eead31"),
]

PELL_CSV_FILE = "8f182ce41ebd00cb72f87151bd5487fb2c356ccbffd999031dbd670182068e21"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden_ids(cases) -> list[str]:
    """command-format; a case whose short id is taken also names its last
    option and value, as in families-count-24-json."""
    ids = []
    for command, fmt, _ in cases:
        words = command.split()
        short = f"{words[0]}-{fmt}"
        long = f"{words[0]}-{words[-2].lstrip('-')}-{words[-1]}-{fmt}"
        ids.append(long if short in ids else short)
    return ids


@pytest.mark.parametrize("command, fmt, digest", GOLDEN, ids=_golden_ids(GOLDEN))
def test_readme_example_output_unchanged(capsys, command, fmt, digest):
    code = main([*shlex.split(command), "--format", fmt, "--no-timing"])
    assert code == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode()) == digest
    if fmt == "json":
        # The emitter lays out JSON itself; json.dumps is its oracle.
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_pell_csv_file_unchanged(capsys, tmp_path):
    target = tmp_path / "pell.csv"
    code = main(["pell", "3", "1", "--bound", "30", "--format", "csv", "--out", str(target)])
    assert code == 0 and capsys.readouterr().out == ""
    text = target.read_bytes()
    assert text.startswith(b"x,y\n")
    assert _sha256(text) == PELL_CSV_FILE
