"""The correctness gate must be able to fail.

Run with ``python3 -m pytest perfbench -q``.  The report streams are fakes
built here; ballq itself is neither run nor patched.
"""

import json

import gate


def _report(family, n, passed=True):
    cusps = n + 1 if family == "gamma" else 2
    return json.dumps({
        "schema_version": 1, "family": family, "n": n, "passed": passed,
        "values": {"chi": n, "k2": -n, "cusps": cusps,
                   "log_c1_squared": 3 * n, "log_c2": n},
    }).encode()


def _stream(family, levels, overrides=None):
    overrides = overrides or {}
    return b"".join(_report(family, n, **overrides.get(n, {})) + b"\n" for n in levels)


LEVELS = [1, 2, 3]
GOLDEN = {"gamma": {str(n): gate.digest(_report("gamma", n)) for n in LEVELS}}


def _ratio(stdout, returncode=0, golden=GOLDEN):
    return gate.fail_ratio(gate.check_invocation("gamma", LEVELS, stdout, returncode, golden))


def test_clean_stream_passes():
    assert _ratio(_stream("gamma", LEVELS)) == 0


def test_flipped_byte_fails_that_level():
    stdout = bytearray(_stream("gamma", LEVELS))
    stdout[stdout.index(b'"schema_version": 1') + 18] ^= 0x01  # 1 -> 0, checks still pass
    results = gate.check_invocation("gamma", LEVELS, bytes(stdout), 0, GOLDEN)
    assert results["gamma:1"] == ["bytes differ from the golden copy"]
    assert gate.fail_ratio(results) > 0


def test_passed_false_fails_even_with_matching_golden():
    stdout = _stream("gamma", LEVELS, {2: {"passed": False}})
    golden = {"gamma": {str(n): gate.digest(line)
                        for n, line in zip(LEVELS, stdout.split(b"\n"))}}
    assert _ratio(stdout, golden=golden) > 0


def test_nonzero_exit_fails_every_level():
    assert _ratio(_stream("gamma", LEVELS), returncode=1) == 1


def test_missing_or_extra_lines_fail():
    assert _ratio(_stream("gamma", LEVELS[:2])) == 1
    assert _ratio(_stream("gamma", LEVELS) + b"\n") == 1


def test_report_checks_apply_without_golden():
    bad = _report("gamma", 2).replace(b'"cusps": 3', b'"cusps": 2')
    stdout = _report("gamma", 1) + b"\n" + bad + b"\n" + _report("gamma", 3) + b"\n"
    results = gate.check_invocation("gamma", LEVELS, stdout, 0, {})
    assert results["gamma:2"] == ["cusps = 2, expected 3"]
    assert gate.fail_ratio(results) > 0
