"""Shared fixtures plus a per-criterion summary for the acceptance suite."""

from __future__ import annotations

import re

import pytest

from kickmix import (
    build_pointadd_permutation,
    build_windowed_pointadd,
    named_curve,
    serialize,
)

# Populated by the hook below while tests/test_acceptance.py runs; the
# terminal summary prints one PASS/FAIL line per numbered criterion.
_ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in item.nodeid:
        return
    match = _CRITERION_RE.search(item.name)
    if match is None:
        return
    doc = (item.function.__doc__ or "").strip().splitlines()
    description = doc[0] if doc else item.name
    _ACCEPTANCE_RESULTS[int(match.group(1))] = (report.outcome, description)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_RESULTS):
        outcome, description = _ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {verdict} - {description}")


@pytest.fixture(scope="session")
def toy11():
    return named_curve("toy-p11-b7")


@pytest.fixture(scope="session")
def toy61():
    return named_curve("toy-p61-b7")


@pytest.fixture(scope="session")
def toy1009():
    return named_curve("toy-p1009-b7")


@pytest.fixture(scope="session")
def secp():
    return named_curve("secp256k1")


@pytest.fixture(scope="session")
def pointadd11(toy11):
    return build_pointadd_permutation(toy11, toy11.generator)


@pytest.fixture(scope="session")
def pointadd11_bytes(pointadd11):
    return serialize(pointadd11.circuit)


@pytest.fixture(scope="session")
def pointadd61(toy61):
    return build_pointadd_permutation(toy61, toy61.generator)


@pytest.fixture(scope="session")
def pointadd61_bytes(pointadd61):
    return serialize(pointadd61.circuit)


@pytest.fixture(scope="session")
def windowed11_w2(toy11):
    return build_windowed_pointadd(toy11, toy11.generator, 2)


@pytest.fixture(scope="session")
def windowed11_w2_bytes(windowed11_w2):
    return serialize(windowed11_w2.circuit)


@pytest.fixture(scope="session")
def pointadd11_respellings(pointadd11_bytes):
    """Spellings of the p11 circuit that serialize never writes, each with
    the line that parse must refuse.  Each would seed another transcript."""
    lines = pointadd11_bytes.decode().splitlines(keepends=True)
    first_gate = next(i for i, line in enumerate(lines) if line.startswith("CX "))
    first_if = next(i for i, line in enumerate(lines) if line.startswith("IF c"))
    first_ccx = next(i for i, line in enumerate(lines) if line.startswith("CCX "))

    def edited(at: int, *new: str) -> str:
        return "".join([*lines[:at], *new, *lines[at + 1 :]])

    variants = {
        "comment-nonce": ("".join(lines) + "# nonce 1\n", len(lines) + 1),
        "blank-line": (edited(first_gate, "\n", lines[first_gate]), first_gate + 1),
        "crlf-line-ends": ("".join(lines).replace("\n", "\r\n"), 1),
        "indented-gate": (edited(first_gate, "  " + lines[first_gate]), first_gate + 1),
        "if-equals-one": (
            edited(first_if, re.sub("^(IF c[0-9]+)", r"\1=1", lines[first_if])), first_if + 1
        ),
        "leading-zero-operand": (
            edited(first_ccx, lines[first_ccx].replace(" ", " 0", 1)), first_ccx + 1
        ),
        "no-cbits-line": (edited(1), 2),
        "unsorted-meta": ("".join([*lines[:2], lines[3], lines[2], *lines[4:]]), 4),
        "no-final-newline": ("".join(lines)[:-1], len(lines)),
    }
    return {name: (text.encode(), line) for name, (text, line) in variants.items()}
