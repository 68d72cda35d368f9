"""CLI contract: documented exit codes with a one-line message, never a
traceback (2 usage or parse error, 3 capacity)."""

import pytest

from srings.cli import main


@pytest.mark.parametrize("spec, message", [
    ("Z0", "error: Zn needs n >= 1"),
    ("M0(Z2)", "error: matrix ring needs k >= 1"),
    ("Q(Z1)", "error: quaternion ring needs modulus n >= 2"),
])
def test_rejected_sizes_exit_2(capsys, spec, message):
    assert main(["classify", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == message + "\n"


@pytest.mark.parametrize("spec", ["M9(Z9)", "Z99999999999999999999999"])
def test_rings_above_int64_exit_3(capsys, spec):
    # construction audits sampled triples of Python-int codes; the census
    # then refuses the ring as not enumerable
    assert main(["classify", spec]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"capacity: {spec}: census needs an enumerable ring\n"


def test_syntax_error_exit_2(capsys):
    assert main(["classify", "Z"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
