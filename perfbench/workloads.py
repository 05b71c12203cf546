"""The benchmark's workloads and the inputs each one derives from a seed.

Every workload verifies point-addition circuits on one of the toy curves
y^2 = x^3 + 7.  The seed never reaches the program: it only picks the
circuit the benchmark builds and hands over.

* Clean workloads: the seed picks the fixed base point k*G.  k runs over
  the scalars coprime to the generator order, so every seed gets a base of
  full order.  The permutation Q -> Q + k*G then has the same cycle
  structure for every seed, and the circuit size moves by under 3%
  (a base of small order on p11 would drop the gate count by 40% and
  swamp the timing with the seed).  Seed 0 gives k = 1, the baseline.
* Mutant workloads: the base stays G and the seed picks a block of
  mutation seeds from a pool of mutants that the seed code rejects
  (``golden.json``).  Seed 0 takes the first block.

Base points are computed here with plain affine arithmetic, so that the
inputs do not depend on the curve code under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
DEFAULT_SEED = 0

# name -> (p, b, generator, generator order); every toy curve has a = 0.
CURVES = {
    "toy-p11-b7": (11, 7, (4, 4), 12),
    "toy-p61-b7": (61, 7, (2, 25), 61),
    "toy-p1009-b7": (1009, 7, (1, 131), 147),
}


def _add(p: int, u, v):
    """Affine addition on y^2 = x^3 + 7 over GF(p); None is the identity."""
    if u is None:
        return v
    if v is None:
        return u
    (x1, y1), (x2, y2) = u, v
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if u == v:
        lam = 3 * x1 * x1 * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def multiple(curve: str, k: int):
    p, _, gen, _ = CURVES[curve]
    acc = None
    for _ in range(k):
        acc = _add(p, acc, gen)
    return acc


def point_count(curve: str) -> int:
    """Number of points on the curve, identity included, by brute force."""
    p, b, _, _ = CURVES[curve]
    squares: dict[int, int] = {}
    for y in range(p):
        squares[y * y % p] = squares.get(y * y % p, 0) + 1
    return 1 + sum(squares.get((x**3 + b) % p, 0) for x in range(p))


def full_order_scalars(curve: str) -> list[int]:
    order = CURVES[curve][3]
    return [k for k in range(1, order) if math.gcd(k, order) == 1]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Workload:
    name: str
    curve: str
    test_count: int  # 0 means exhaustive
    security_bits: int = 40
    window: int | None = None
    mutants: int = 0  # 0 for a clean workload

    @property
    def exhaustive(self) -> bool:
        return self.test_count == 0

    def spec(self) -> dict:
        registers = {"accumulator_x": "qx", "accumulator_y": "qy"}
        if self.window is not None:
            registers["window"] = "k"
        spec = {
            "curve": self.curve,
            "test_count": self.test_count,
            "security_bits": self.security_bits,
            "registers": registers,
        }
        if self.exhaustive:
            spec["tolerated_failure_fraction"] = 0
        return spec

    def base_scalar(self, seed: int) -> int:
        if self.mutants:
            return 1
        scalars = full_order_scalars(self.curve)
        return scalars[seed % len(scalars)]

    def build_args(self, seed: int, output: str) -> list[str]:
        x, y = multiple(self.curve, self.base_scalar(seed))
        if self.window is None:
            args = ["build", "pointadd"]
        else:
            args = ["build", "windowed-pointadd", "--window", str(self.window)]
        return args + ["-o", output, "--curve", self.curve, "--point", f"{x},{y}"]

    def verify_args(self, circuit: str, spec: str, report: str, jobs: int = 1) -> list[str]:
        args = ["verify", circuit, "--spec", spec, "-o", report, "--jobs", str(jobs)]
        if self.exhaustive:
            args.append("--exhaustive")
        return args

    def entries(self) -> int:
        """Report entries one verify call must produce."""
        if not self.exhaustive:
            return self.test_count
        return point_count(self.curve) << (self.window or 0)

    def mutation_seeds(self, seed: int, golden: dict) -> list[int]:
        pool = sorted(int(key) for key in golden[self.name]["reports"])
        return [pool[(seed * self.mutants + j) % len(pool)] for j in range(self.mutants)]

    def golden_report(self, golden: dict, key: int) -> dict | None:
        """The recorded report for this input, if the seed code's run of it
        used exactly this spec."""
        entry = golden.get(self.name)
        if entry is None or entry["spec"] != self.spec():
            return None
        return entry["reports"].get(str(key))


# Why each workload is here is in BENCHMARK.json; in short:
WORKLOADS = {
    w.name: w
    for w in (
        # Small circuit, many tests: per-test layers get their biggest share.
        Workload("p11-sampled", "toy-p11-b7", 9024, security_bits=128),
        # Huge circuit, few tests: per-gate simulation and parse dominate.
        Workload("p1009-sampled", "toy-p1009-b7", 16),
        # Every input, every branch: the all-branch checker, no transcript.
        Workload("p61w2-exhaustive", "toy-p61-b7", 0, window=2),
        # Rejected mutants: the failing-test path.
        Workload("p11-mutants", "toy-p11-b7", 2759, mutants=8),
    )
}
