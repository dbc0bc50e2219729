"""Characterization test: CLI stdout and exit codes pinned as golden text.

Each case runs one command line through cli.main and compares its exit
code and stdout with tests/golden/<name>.txt. The json-lines header is
dropped, since it carries timestamps; everything after it is pinned byte
for byte.
"""

from pathlib import Path

import pytest

from sigmaperfect.cli import main

GOLDEN = Path(__file__).parent / "golden"

_SEARCH = ("search", "--k", "all-mersenne-upto-7", "--alpha-max", "7", "--beta-max", "4")
_LEMMA_FLAGS = (
    "--k", "3,5", "--p-max", "60", "--v-max", "2", "--beta1-max", "3", "--alpha-max", "5",
    "--beta-max", "4", "--lambda-max", "3", "--p1-max", "3",
)
_LEMMA_TAGS = ("vs1", "cando", "appr", "appr2", "tv", "tv2", "sl3", "f", "v10", "u1", "v3", "trichotomy")

# name -> (argv, exit code)
CASES = {
    "search-json-lines": ((*_SEARCH, "--format", "json-lines"), 0),
    "search-csv": ((*_SEARCH, "--format", "csv"), 0),
    "search-human": ((*_SEARCH, "--format", "human"), 0),
    "verify-k5-beta2": (("verify-theorem", "--k", "5", "--alpha-max", "8"), 0),
    "verify-k5-beta6": (("verify-theorem", "--k", "5", "--alpha-max", "8", "--beta-max", "6"), 0),
    "verify-k3-beta4": (("verify-theorem", "--k", "3", "--alpha-max", "8", "--beta-max", "4"), 0),
    "verify-k7-beta2": (("verify-theorem", "--k", "7", "--alpha-max", "8", "--beta-max", "2"), 0),
    "verify-k7-beta4": (("verify-theorem", "--k", "7", "--alpha-max", "6", "--beta-max", "4"), 2),
    **{f"lemma-{tag}": (("check-lemma", tag, *_LEMMA_FLAGS), 0) for tag in _LEMMA_TAGS},
}


def run_case(argv, capsys) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    if "--format" in argv and argv[argv.index("--format") + 1] == "json-lines":
        out = out.split("\n", 1)[1]
    return code, out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    argv, expected_code = CASES[name]
    code, out = run_case(argv, capsys)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["lemma-f", "lemma-v10"])
def test_lemma_output_without_the_reference_route(name, monkeypatch, capsys):
    # f and v10 decide on the batch kernel; divides_sigma is only a reference
    def refuse(f, bit_cap=None):
        raise AssertionError("divides_sigma must not be called")

    monkeypatch.setattr("sigmaperfect.sigma.divides_sigma", refuse)
    monkeypatch.setattr("sigmaperfect.classify.divides_sigma", refuse)
    argv, expected_code = CASES[name]
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(argv, capsys) == (expected_code, golden)
