"""Compare the measured outputs against the generated references.

    python3 perfbench/verify.py --work DIR

Reads ``DIR/expected.json`` and ``DIR/measure.json`` and writes
``DIR/verdicts.json``: the indices of the requests whose output disagrees
with the reference, with a reason for each.  The output text is parsed
here with the benchmark's own reader, not the library's.
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import numpy as np

ATOL = 1e-7  # reports carry 9 decimals (reals) or 9 significant digits (matrices)
_SPLIT = re.compile(r"(?<=[0-9.])(?=[+-])")  # between the real and imaginary parts


def complex_token(token: str) -> complex:
    """Read ``a+bi`` as printed by the report formatter."""
    if not token.endswith("i"):
        raise ValueError(f"bad complex entry {token!r}")
    parts = _SPLIT.split(token[:-1])
    if len(parts) != 2:
        raise ValueError(f"bad complex entry {token!r}")
    return complex(float(parts[0]), float(parts[1]))


def read_matrix(text: str) -> np.ndarray:
    lines = text.split("\n")
    rows, cols = (int(t) for t in lines[0].split())
    body = [line.split() for line in lines[1:1 + rows]]
    if len(body) != rows or any(len(r) != cols for r in body):
        raise ValueError("matrix report has the wrong shape")
    entries = [[complex_token(t) for t in r] for r in body]
    return np.array(entries, dtype=complex).reshape(rows, cols)


def close(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= ATOL * (1 + np.abs(want))))


def value_text(output: str) -> str:
    """The part of a one-query report after ``0: KIND = ``, or a check's output."""
    head, sep, rest = output.partition(" = ")
    if sep and head.startswith("0: "):
        return rest.rstrip("\n")
    return output


def braced(text: str) -> list[str]:
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError("expected {...}")
    inner = text[1:-1]
    return inner.split(",") if inner else []


def check(output: str, expect: dict):
    """None when ``output`` matches ``expect``, otherwise the reason."""
    text = value_text(output)
    kind = expect["type"]
    try:
        if kind == "real":
            ok = close(float(text), expect["value"])
        elif kind in ("matrix", "projector"):
            want = (np.array(expect["re"]) + 1j * np.array(expect["im"])).reshape(expect["shape"])
            got = read_matrix(text)
            if kind == "projector":
                # the basis depends on the gauge, its column space does not
                got = got @ got.conj().T
            ok = close(got, want)
        elif kind == "undefined":
            ok = text == "undefined"
        elif kind == "values":
            if not (text.startswith("[") and text.endswith("]")):
                raise ValueError("expected [...]")
            ok = close([float(v) for v in text[1:-1].split(", ")], expect["values"])
        elif kind == "dist":
            pairs = [item.split(": ") for item in text[1:-1].split(", ")]
            ok = ([p[0] for p in pairs] == expect["labels"]
                  and close([float(p[1]) for p in pairs], expect["values"]))
        elif kind == "labels":
            ok = braced(text) == expect["labels"]
        elif kind == "text":
            ok = text == expect["value"]
        elif kind == "defect":
            # "defect ZERO X: LAW W1 W2": the entry (X, ZERO) was removed, so
            # commutativity must fail at its mirror (ZERO, X)
            head, _, verdict = text.partition(": ")
            _, zero, x = head.split()
            ok = verdict == f"commutativity {zero} {x}" and zero != x
        else:
            raise ValueError(f"unknown expectation {kind!r}")
    except (ValueError, IndexError) as exc:
        return f"unreadable output ({exc}): {text[:120]!r}"
    return None if ok else f"disagrees with the reference: {text[:120]!r}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    expected = json.loads((args.work / "expected.json").read_text(encoding="utf-8"))
    measured = json.loads((args.work / "measure.json").read_text(encoding="utf-8"))
    outputs = measured["outputs"]
    if len(outputs) != len(expected):
        raise SystemExit("output count does not match the request count")
    bad = {}
    for i, (output, expect) in enumerate(zip(outputs, expected)):
        reason = check(output, expect)
        if reason is not None:
            bad[i] = reason
    for i in measured["mismatched"]:
        bad.setdefault(i, "output changed between passes")
    (args.work / "verdicts.json").write_text(json.dumps({"bad": bad}), encoding="utf-8")


if __name__ == "__main__":
    main()
