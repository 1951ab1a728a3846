"""The exit-code table lives on the error classes in `roofcalc.errors`:
every package error ends `cli.main` in its class's code, with one stderr
line that opens with its class's label."""

import pytest

from roofcalc import cli, errors

# the documented table; every class not listed is a precondition violation
TABLE = {
    errors.ParseError: (2, "parse error"),
    errors.UsageError: (2, "usage error"),
    errors.AmbiguityError: (4, "ambiguous result"),
    errors.InjectivityViolationError: (5, "verification mismatch"),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = sorted(set(_subclasses(errors.RoofcalcError)), key=lambda cls: cls.__name__)


def _instance(cls):
    if cls is errors.ParseError:
        return cls("unexpected token", 4)
    if cls is errors.InconsistentDataError:
        return cls("chase", "no unit pivot in h")
    return cls("something failed")


def test_every_error_has_a_documented_exit_code():
    assert len(ERRORS) >= 14
    for cls in ERRORS:
        assert cls.exit_code in {2, 3, 4, 5}, cls
        assert (cls.exit_code, cls.label) == TABLE.get(cls, (3, "precondition violated"))


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_main_returns_the_class_code_with_one_line(cls, monkeypatch, capsys):
    exc = _instance(cls)

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_lr", fail)
    code = cli.main(["lr", "--rank", "2", "--a", "1,0", "--b", "1,0"])
    captured = capsys.readouterr()
    expected_code, label = TABLE.get(cls, (3, "precondition violated"))
    if cls is errors.InconsistentDataError:
        line = f"{label} in the chase: {exc}; the section may not be general"
    else:
        line = f"{label}: {exc}"
    assert code == expected_code
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_empty_zero_locus_ends_in_one_line(capsys):
    # the degree check, reached through the real command: a general 2-form
    # on V of even dimension has no kernel, so Q*(1) on P(V) has no zeros
    code = cli.main(["hodge", "--k", "1", "--n", "6", "--bundle", "QD*O(1)"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("precondition violated: zero locus is empty")
