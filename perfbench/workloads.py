"""Seeded inputs and reference results for the effectlogic benchmark.

    python3 perfbench/workloads.py --workload NAME --seed N --out DIR [--size tiny]

writes ``DIR/NNN.scn`` (scenario files), ``DIR/requests.json`` (what the
measuring process runs) and ``DIR/expected.json`` (what ``verify.py``
compares against).  The same seed gives the same files.

Every reference value is computed here from the generated numbers with
numpy (``numpy.linalg.eigh`` for the quantum square roots and spectra),
never with effectlogic, so the check is independent of the library.
Effect-algebra verdicts are known by construction and homomorphism counts
by their closed forms.

Each workload has a fixed shape: the number of requests of every family
and the spread of sizes do not depend on the seed, only the contents do.
That keeps the latency distribution, and so the medians and percentiles,
comparable from seed to seed.
"""

from __future__ import annotations

import argparse
import json
from itertools import cycle
from pathlib import Path

import numpy as np

WORKLOADS = ("quantum_small", "quantum_large", "finite")

PSD_TOL = 1e-9  # eigenvalues below this are exact zeros for the square root
ORTHOSUM_MARGIN = 1e-6  # keeps orthosum away from its definedness boundary


# -- number formatting -------------------------------------------------------
#
# repr() round-trips a float exactly, so the library parses the very numbers
# the references are computed from.

def num(x: float) -> str:
    return repr(float(x))


def cnum(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{num(z.real)}{sign}{num(abs(z.imag))}i"


class ScenarioWriter:
    """Builds one scenario file; queries are numbered in order."""

    def __init__(self, instance: str):
        self.lines = [f"instance {instance}"]
        self.queries = 0
        self.fresh = 0

    def name(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def let(self, prefix: str, expr: str) -> str:
        name = self.name(prefix)
        self.lines.append(f"let {name} = {expr}")
        return name

    def matrix(self, m: np.ndarray) -> str:
        name = self.name("M")
        rows, cols = m.shape
        self.lines.append(f"let {name} = matrix {rows} {cols}")
        for r in range(rows):
            self.lines.append(" ".join(cnum(z) for z in m[r]))
        return name

    def query(self, expr: str) -> int:
        self.lines.append(f"query {expr}")
        self.queries += 1
        return self.queries - 1

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class Workload:
    """Scenario files, the request list and the expected results."""

    def __init__(self):
        self.files: list[ScenarioWriter] = []
        self.requests: list[dict] = []
        self.expected: list[dict] = []

    def add_file(self, writer: ScenarioWriter) -> int:
        self.files.append(writer)
        return len(self.files) - 1

    def add_query(self, file: int, expr: str, family: str, expect: dict) -> None:
        index = self.files[file].query(expr)
        self.requests.append({"kind": "query", "file": file, "query": index, "family": family})
        self.expected.append(expect)

    def add_check(self, spec: dict, family: str, expect: dict, defect=None) -> None:
        self.requests.append({"kind": "check", "spec": spec, "defect": defect, "family": family})
        self.expected.append(expect)

    def add_homs(self, spec: dict, family: str, count: int) -> None:
        self.requests.append({"kind": "homs", "spec": spec, "family": family})
        self.expected.append({"type": "text", "value": f"homs {count}"})

    def shuffle(self, rng: np.random.Generator) -> None:
        order = rng.permutation(len(self.requests))
        self.requests = [self.requests[i] for i in order]
        self.expected = [self.expected[i] for i in order]

    def write(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        for old in out.glob("*.scn"):
            old.unlink()
        names = []
        for i, writer in enumerate(self.files):
            name = f"{i:03d}.scn"
            (out / name).write_text(writer.text(), encoding="utf-8")
            names.append(name)
        manifest = {"files": names, "requests": self.requests}
        (out / "requests.json").write_text(json.dumps(manifest), encoding="utf-8")
        (out / "expected.json").write_text(json.dumps(self.expected), encoding="utf-8")


# -- quantum references ------------------------------------------------------

def expect_real(x: float) -> dict:
    return {"type": "real", "value": float(x)}


def expect_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"type": "matrix", "shape": list(m.shape),
            "re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist()}


def expect_projector(p: np.ndarray) -> dict:
    out = expect_matrix(p)
    out["type"] = "projector"
    return out


def hermitian(m: np.ndarray) -> np.ndarray:
    """Exactly Hermitian in floating point: mirrored entries are conjugates."""
    return (m + m.conj().T) / 2.0


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def effect_matrix(rng, n: int, ones: int = 0, zeros: int = 0, lo=0.05, hi=0.95) -> np.ndarray:
    """A random effect with ``ones`` eigenvalues 1 and ``zeros`` eigenvalues 0.

    The other eigenvalues lie in [lo, hi], well away from the kernel and
    square-root thresholds, so the comprehension subspace is unambiguous.
    """
    rest = rng.uniform(lo, hi, n - ones - zeros)
    spectrum = np.concatenate([np.ones(ones), np.zeros(zeros), rest])
    u = unitary(rng, n)
    return hermitian(u @ np.diag(spectrum) @ u.conj().T)


def density_matrix(rng, n: int) -> np.ndarray:
    rank = max(n - 1, 1)
    w = rng.dirichlet(np.ones(rank))
    spectrum = np.concatenate([w, np.zeros(n - rank)])
    u = unitary(rng, n)
    return hermitian(u @ np.diag(spectrum) @ u.conj().T)


def isometry_matrix(rng, rows: int, cols: int) -> np.ndarray:
    return unitary(rng, rows)[:, :cols]


def unit_ket(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def sqrt_psd(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    vals = np.where(vals < PSD_TOL, 0.0, vals)
    return hermitian(vecs @ np.diag(np.sqrt(vals)) @ vecs.conj().T)


def ref_andthen(a, b):
    r = sqrt_psd(a)
    return hermitian(r @ b @ r)


def ref_then(a, b):
    r = sqrt_psd(a)
    return hermitian(r @ b @ r + np.eye(len(a)) - a)


def classifier(a):
    return np.vstack([sqrt_psd(a), sqrt_psd(np.eye(len(a)) - a)])


def ref_born(x, a) -> float:
    return float(min(max((x.conj() @ a @ x).real, 0.0), 1.0))


def ref_comprehension(a) -> np.ndarray:
    vals, vecs = np.linalg.eigh(np.eye(len(a)) - a)
    k = vecs[:, np.abs(vals) < 1e-8]
    return k @ k.conj().T


def lambda_max(m) -> float:
    return float(np.linalg.eigvalsh(m)[-1])


def orthosum_scalar(rng, a, b, defined: bool):
    """A scalar s with a + s b clear of the definedness boundary, or None.

    For a defined sum, ``a`` must keep its spectrum below 1; s is a share
    of the largest admissible scalar, found by bisection.  An undefined sum
    uses s = 1 and needs a + b to exceed the identity.
    """
    if not defined:
        s = 1.0
    elif lambda_max(a + b) <= 1.0:
        s = float(rng.uniform(0.3, 1.0))
    else:
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if lambda_max(a + mid * b) <= 1.0 else (lo, mid)
        s = float(rng.uniform(0.3, 0.9)) * lo
    top = lambda_max(a + s * b)
    if abs(top - 1.0) <= ORTHOSUM_MARGIN or (top < 1.0) != defined:
        return None
    return s


# -- quantum workloads ---------------------------------------------------------

def quantum_small(seed: int, tiny: bool) -> Workload:
    """Qubit/qutrit-sized scenarios whose queries build their operands inline."""
    rng = np.random.default_rng([seed, 1])
    w = Workload()
    per_file = {"born_andthen": 6, "andthen": 4, "then": 4, "orthosum": 4,
                "orthosum_undefined": 2, "measure_pure": 5, "measure_density": 5,
                "substitute": 4, "comprehension": 4, "born_polarisation": 2}
    # each family cycles over dimensions 2, 3, 3, 4: the median lands among
    # the many dimension-3 queries, not on the step between two dimensions
    made = dict.fromkeys(per_file, 0)
    for _ in range(1 if tiny else 8):
        sw = ScenarioWriter("quantum")
        fi = w.add_file(sw)
        for family, count in per_file.items():
            for _ in range(count):
                n = 2 if tiny else (2, 3, 3, 4)[made[family] % 4]
                made[family] += 1
                _quantum_query(w, fi, sw, rng, family, n, inline=True)
    w.shuffle(rng)
    return w


def quantum_large(seed: int, tiny: bool) -> Workload:
    """Dimension 12-16 scenarios reusing a few declared objects per file."""
    rng = np.random.default_rng([seed, 2])
    w = Workload()
    per_file = {"born_andthen": 4, "andthen": 2, "then": 2, "orthosum": 2,
                "measure_pure": 2, "measure_density": 4, "substitute": 2, "comprehension": 2}
    dims = [12] if tiny else [12, 13, 14, 15, 16]
    for n in dims:
        sw = ScenarioWriter("quantum")
        fi = w.add_file(sw)
        preds = []
        for ones, zeros in ((1, 1), (2, 0), (1, 0)) * 2:
            a = effect_matrix(rng, n, ones=ones, zeros=zeros)
            preds.append((sw.let("p", f"predicate({sw.matrix(a)})"), a))
        # the left summand of every orthosum: its spectrum stays below 1
        a = effect_matrix(rng, n, zeros=1)
        below_one = (sw.let("p", f"predicate({sw.matrix(a)})"), a)
        rhos, isos, kets = [], [], []
        for _ in range(2):
            rho = density_matrix(rng, n)
            rhos.append((sw.let("rho", f"density({sw.matrix(rho)})"), rho))
            v = isometry_matrix(rng, n, n - 2)
            isos.append((sw.let("f", f"isometry({sw.matrix(v)})"), v))
            x = unit_ket(rng, n)
            kets.append((sw.let("x", "ket(" + ", ".join(num(c) for c in x) + ")"), x))
        # declared operands are used in turn, so every seed makes the same mix
        env = {"preds": cycle(preds), "below_one": below_one, "rho": cycle(rhos),
               "f": cycle(isos), "x": cycle(kets)}
        plan = [fam for fam, count in per_file.items() for _ in range(count)]
        for family in plan:
            _quantum_query(w, fi, sw, rng, family, n, inline=False, env=env)
    w.shuffle(rng)
    return w


def _quantum_query(w: Workload, fi: int, sw: ScenarioWriter, rng, family: str, n: int,
                   inline: bool, env=None) -> None:
    """One quantum query; operands are fresh inline literals or declared names."""

    def pred(ones=0, zeros=0, wrap="predicate"):
        if inline:
            a = effect_matrix(rng, n, ones=ones, zeros=zeros)
            return f"{wrap}({sw.matrix(a)})", a
        return next(env["preds"])

    def ket():
        if inline:
            x = unit_ket(rng, n)
            return "ket(" + ", ".join(num(c) for c in x) + ")", x
        return next(env["x"])

    if family == "born_andthen":
        (xe, x), (pe, a), (qe, b) = ket(), pred(), pred()
        w.add_query(fi, f"born({xe}, andthen({pe}, {qe}))", family,
                    expect_real(ref_born(x, ref_andthen(a, b))))
    elif family in ("andthen", "then"):
        (pe, a), (qe, b) = pred(), pred(wrap="effect")
        ref = ref_andthen(a, b) if family == "andthen" else ref_then(a, b)
        w.add_query(fi, f"{family}({pe}, {qe})", family, expect_matrix(ref))
    elif family in ("orthosum", "orthosum_undefined"):
        defined = family == "orthosum"
        s = None
        while s is None:
            if inline:
                lo = 0.05 if defined else 0.6
                a = effect_matrix(rng, n, zeros=int(rng.integers(0, 2)), lo=lo)
                b = effect_matrix(rng, n, ones=int(defined and rng.integers(0, 2)), lo=lo)
                pe, qe = f"predicate({sw.matrix(a)})", f"predicate({sw.matrix(b)})"
            else:
                pe, a = env["below_one"]
                qe, b = next(env["preds"])
            s = orthosum_scalar(rng, a, b, defined)
        expect = expect_matrix(a + s * b) if defined else {"type": "undefined"}
        w.add_query(fi, f"orthosum({pe}, multiply({num(s)}, {qe}))", family, expect)
    elif family == "measure_pure":
        (pe, a), (xe, x) = pred(), ket()
        w.add_query(fi, f"measure({pe}, {xe})", family,
                    expect_matrix((classifier(a) @ x).reshape(-1, 1)))
    elif family == "measure_density":
        pe, a = pred()
        if inline:
            rho = density_matrix(rng, n)
            re = f"density({sw.matrix(rho)})"
        else:
            re, rho = next(env["rho"])
        v = classifier(a)
        w.add_query(fi, f"measure({pe}, {re})", family, expect_matrix(v @ rho @ v.conj().T))
    elif family == "substitute":
        pe, a = pred()
        if inline:
            v = isometry_matrix(rng, n, n - 1)
            fe = f"isometry({sw.matrix(v)})"
        else:
            fe, v = next(env["f"])
        w.add_query(fi, f"substitute({fe}, {pe})", family, expect_matrix(v.conj().T @ a @ v))
    elif family == "comprehension":
        pe, a = pred(ones=1 + int(rng.integers(0, n - 1)), zeros=int(rng.integers(0, 2)))
        w.add_query(fi, f"comprehension({pe})", family, expect_projector(ref_comprehension(a)))
    elif family == "born_polarisation":
        # the two-filter experiment at a random angle, through the built-ins
        t = float(rng.uniform(0.1, 1.4))
        u = np.array([np.cos(t), np.sin(t)])
        start, x = ("ket0", np.array([1.0, 0.0])) if rng.random() < 0.5 else \
            ("ketNE", np.array([1.0, 1.0]) / np.sqrt(2))
        filt = f"predicate(projector(ket({num(u[0])}, {num(u[1])})))"
        vertical = np.diag([0.0, 1.0]).astype(complex)
        w.add_query(fi, f"born({start}, andthen({filt}, predicate(projector(ket1))))", family,
                    expect_real(ref_born(x, ref_andthen(np.outer(u, u).astype(complex), vertical))))
    else:
        raise ValueError(family)


# -- finite workload -----------------------------------------------------------

def labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def fuzzy_values(rng, n: int, ones: int = 0, hi: float = 0.99) -> np.ndarray:
    """Values in [0, hi] with ``ones`` points exactly 1 (the comprehension)."""
    v = rng.uniform(0.0, hi, n)
    v[rng.choice(n, size=ones, replace=False)] = 1.0
    return v


def expect_values(v) -> dict:
    return {"type": "values", "values": [float(x) for x in np.clip(v, 0.0, 1.0)]}


def expect_labels(names) -> dict:
    return {"type": "labels", "labels": list(names)}


def stochastic_file(w: Workload, rng, n: int, m: int, tiny: bool) -> int:
    sw = ScenarioWriter("stochastic")
    fi = w.add_file(sw)
    xl, yl = labels("a", n), labels("b", m)
    x = sw.let("X", f"carrier({', '.join(xl)})")
    y = sw.let("Y", f"carrier({', '.join(yl)})")
    kernel = rng.dirichlet(np.full(m, 0.5), size=n)
    kname = sw.let("K", f"stochmap({x}, {y}, {', '.join(num(v) for v in kernel.ravel())})")

    def fuzzy_lit(carrier, v):
        return f"fuzzy({carrier}, {', '.join(num(t) for t in v)})"

    # declared operands are used in turn, so every seed makes the same mix
    def declare(prefix, carrier, values):
        return cycle([(sw.let(prefix, fuzzy_lit(carrier, v)), v) for v in values])

    qs = declare("q", y, [fuzzy_values(rng, m) for _ in range(3)])
    ps = declare("p", x, [fuzzy_values(rng, n, ones=ones) for ones in (1, 3, 5, 7)])
    lows = declare("p", x, [fuzzy_values(rng, n, hi=0.6) for _ in range(2)])
    dists = []
    for _ in range(2):
        d = rng.dirichlet(np.ones(n))
        dists.append((sw.let("d", f"dist({x}, {', '.join(num(t) for t in d)})"), d))
    dists = cycle(dists)

    def operand(k):
        # every other query spells its second operand out as a literal
        if k % 2:
            v = fuzzy_values(rng, n, ones=k % 4)
            return fuzzy_lit(x, v), v
        return next(ps)

    count = 2 if tiny else 5
    for _ in range(count + 1):
        qe, q = next(qs)
        w.add_query(fi, f"substitute({kname}, {qe})", "stoch_substitute", expect_values(kernel @ q))
    for k in range(count):
        (pe, p), (qe, q) = next(ps), operand(k)
        w.add_query(fi, f"andthen({pe}, {qe})", "stoch_andthen", expect_values(p * q))
        (pe, p), (qe, q) = next(ps), operand(k + 1)
        w.add_query(fi, f"then({pe}, {qe})", "stoch_then", expect_values(1.0 - p * (1.0 - q)))
    for k in range(count):
        pe, p = next(lows)
        if k % 5 == 4:
            q = rng.uniform(0.0, 0.3, n)
            q[int(np.argmax(p))] = 0.99
            w.add_query(fi, f"orthosum({pe}, {fuzzy_lit(x, q)})", "stoch_orthosum",
                        {"type": "undefined"})
        else:
            q = rng.uniform(0.0, 0.99, n) * (1.0 - p)
            w.add_query(fi, f"orthosum({pe}, {fuzzy_lit(x, q)})", "stoch_orthosum",
                        expect_values(p + q))
    for k in range(count):
        (pe, p), s = next(ps), float(rng.uniform(0.0, 1.0))
        w.add_query(fi, f"multiply({num(s)}, {pe})", "stoch_multiply", expect_values(s * p))
    for k in range(count):
        pe, p = next(ps)
        if k % 2:
            d = rng.dirichlet(np.ones(n))
            de = f"dist({x}, {', '.join(num(t) for t in d)})"
        else:
            de, d = next(dists)
        split = np.concatenate([d * p, d * (1.0 - p)])
        w.add_query(fi, f"measure({pe}, {de})", "stoch_measure",
                    {"type": "dist", "labels": [f"L.{l}" for l in xl] + [f"R.{l}" for l in xl],
                     "values": split.tolist()})
    for k in range(count):
        pe, p = operand(k + 1)
        w.add_query(fi, f"comprehension({pe})", "stoch_comprehension",
                    expect_labels(l for l, v in zip(xl, p) if v == 1.0))
    return fi


def classical_file(w: Workload, rng, n: int, m: int, tiny: bool) -> int:
    sw = ScenarioWriter("classical")
    fi = w.add_file(sw)
    xl, yl = labels("a", n), labels("b", m)
    x = sw.let("X", f"carrier({', '.join(xl)})")
    y = sw.let("Y", f"carrier({', '.join(yl)})")
    table = rng.integers(0, m, n)
    f = sw.let("f", f"finmap({x}, {y}, {', '.join(yl[j] for j in table)})")

    def subset(size, density):
        return set(np.nonzero(rng.random(size) < density)[0].tolist())

    def subset_lit(carrier, names, members):
        return f"subset({', '.join([carrier] + [names[i] for i in sorted(members)])})"

    ts = cycle([(sw.let("T", subset_lit(y, yl, s)), s) for s in [subset(m, 0.5) for _ in range(3)]])
    ss = cycle([(sw.let("S", subset_lit(x, xl, s)), s)
                for s in [subset(n, d) for d in (0.3, 0.4, 0.6, 0.7)]])

    def operand(k):
        if k % 2:
            s = subset(n, 0.5)
            return subset_lit(x, xl, s), s
        return next(ss)

    def named(members):
        return expect_labels(xl[i] for i in sorted(members))

    everything = set(range(n))
    count = 2 if tiny else 6
    for k in range(count):
        te, t = next(ts)
        w.add_query(fi, f"substitute({f}, {te})", "class_substitute",
                    named(i for i in range(n) if table[i] in t))
    for k in range(count):
        (pe, p), (qe, q) = next(ss), operand(k)
        w.add_query(fi, f"andthen({pe}, {qe})", "class_andthen", named(p & q))
        (pe, p), (qe, q) = next(ss), operand(k + 1)
        w.add_query(fi, f"then({pe}, {qe})", "class_then", named((everything - p) | q))
    for k in range(count):
        pe, p = next(ss)
        if k % 2:
            q = subset(n, 0.3) | {min(p)}
            expect = {"type": "undefined"}
        else:
            q = subset(n, 0.5) - p
            expect = named(p | q)
        w.add_query(fi, f"orthosum({pe}, {subset_lit(x, xl, q)})", "class_orthosum", expect)
    for k in range(count):
        pe, p = next(ss)
        i = int(rng.integers(n))
        side = "left" if i in p else "right"
        w.add_query(fi, f"measure({pe}, elem({x}, {xl[i]}))", "class_measure",
                    {"type": "text", "value": f"{side}({xl[i]})"})
    for k in range(count):
        pe, p = operand(k)
        w.add_query(fi, f"comprehension({pe})", "class_comprehension", named(p))
    return fi


def ea_spec(name: str) -> dict:
    """'P4' is the powerset algebra of a 4-set, 'MO2' the free algebra MO(2)."""
    if name.startswith("MO"):
        return {"op": "mo", "n": int(name[2:])}
    return {"op": "powerset", "n": int(name[1:])}


def pair_spec(op: str, a: str, b: str, rng) -> dict:
    if rng.random() < 0.5:
        a, b = b, a
    return {"op": op, "a": ea_spec(a), "b": ea_spec(b)}


PASS = {"type": "text", "value": "pass"}

PRODUCTS = [("P2", "P3"), ("P3", "P3"), ("P3", "MO2"), ("P4", "MO1"),
            ("P2", "MO3"), ("MO2", "MO3"), ("P4", "P2"), ("P3", "MO3")]
COPRODUCTS = [("P5", "MO3"), ("P4", "P4"), ("MO4", "P3"), ("P5", "P2"), ("P4", "MO2"), ("P3", "P3")]
DOWNSET_SIZES = [(7, 5), (7, 6), (8, 5), (8, 6), (8, 6), (8, 7)]
OPPOSITES = ["P6", "P5", "MO5", "P6", "P4", "MO3"]
HOMS = [("MO", 3), ("MO", 4), ("MO", 5), ("MO", 6), ("P", 3), ("P", 4)]


def finite(seed: int, tiny: bool) -> Workload:
    """Classical and stochastic scenarios plus effect-algebra checks."""
    rng = np.random.default_rng([seed, 3])
    w = Workload()
    if tiny:
        sf = [stochastic_file(w, rng, 64, 16, tiny)]
        cf = [classical_file(w, rng, 64, 16, tiny)]
    else:
        sf = [stochastic_file(w, rng, n, m, tiny) for n, m in ((96, 64), (256, 64))]
        cf = [classical_file(w, rng, n, m, tiny) for n, m in ((64, 32), (192, 48))]

    # checks spelled as scenario queries
    states = ("states(3)", {"type": "text", "value": "3"}) if tiny else \
        ("states(4)", {"type": "text", "value": "4"})
    scenario_checks = [(f"axioms(mo({int(rng.integers(4, 17))}))", PASS) for _ in range(2)]
    scenario_checks += [states] * 2
    for k, copies in (((5, 1),) if tiny else ((6, 6), (7, 3), (8, 1))):
        scenario_checks += [(f"axioms(powerset({k}))", PASS)] * copies
    for k, (expr, expect) in enumerate(scenario_checks):
        fi = cf[k % len(cf)] if expr.startswith("states") else (sf + cf)[k % (len(sf) + len(cf))]
        w.add_query(fi, expr, "check_" + expr.split("(")[0], expect)

    # checks made through the effect_algebra API
    products, coproducts, downsets, opposites, homs = (
        (PRODUCTS[:1], COPRODUCTS[-1:], [(5, 3)], ["P4"], [("MO", 3), ("P", 3)]) if tiny
        else (PRODUCTS, COPRODUCTS, DOWNSET_SIZES, OPPOSITES, HOMS))
    for a, b in products:
        w.add_check(pair_spec("product", a, b, rng), "check_product", PASS)
    for a, b in coproducts:
        w.add_check(pair_spec("coproduct", a, b, rng), "check_coproduct", PASS)
    for size, bits in downsets:
        top = sum(1 << int(i) for i in rng.choice(size, size=bits, replace=False))
        w.add_check({"op": "downset", "of": ea_spec(f"P{size}"), "top": top}, "check_downset", PASS)
    for name in opposites:
        w.add_check({"op": "opposite", "of": ea_spec(name)}, "check_opposite", PASS)
    for kind, k in homs:
        # |Hom(MO(k), 2)| = 2^k and |Hom(P(k), 2)| = k (points of a k-set)
        w.add_homs(ea_spec(f"{kind}{k}"), f"homs_{kind}", 2 ** k if kind == "MO" else k)
    # planted defects: one mirror entry (x, 0) removed, so commutativity fails
    defects = [ea_spec("P6"), pair_spec("product", "P3", "P3", rng),
               {"op": "opposite", "of": ea_spec("P5")}, pair_spec("coproduct", "P4", "MO2", rng)]
    for spec in defects[:1] if tiny else defects:
        w.add_check(spec, "check_defect", {"type": "defect"}, defect=int(rng.integers(1, 1 << 16)))
    w.shuffle(rng)
    return w


GENERATORS = {"quantum_small": quantum_small, "quantum_large": quantum_large, "finite": finite}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    GENERATORS[args.workload](args.seed, args.size == "tiny").write(args.out)


if __name__ == "__main__":
    main()
