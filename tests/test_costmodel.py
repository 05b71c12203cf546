"""Attack-cost arithmetic: exact formulas, window sweeps, and economics."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from kickmix import (
    AttackScenario,
    MachineProfile,
    PointAddCost,
    WalletRecord,
    ecdlp_qubits,
    ecdlp_toffoli,
    magic_limited_key_time,
    multi_machine_speedup,
    onspend_success,
    optimal_window,
    primed_attack_time,
    runtime,
    salvage_timeline,
    t_factory_qubits,
    t_production_rate,
    windowed_addition_count,
)
from kickmix.costmodel import partition_even, partition_reference

# 256-bit run, 16-bit windows: ceil(512/16) - 4 = 28 windowed additions,
# each costing the point-addition core plus a 3 * 2^16 = 196,608 lookup.
_LEAN = PointAddCost(pa_toffoli=2_100_000, pa_qubits=1175, n=256, w=16)
_WIDE = PointAddCost(pa_toffoli=2_700_000, pa_qubits=1425, n=256, w=16)


def test_windowed_addition_count() -> None:
    assert windowed_addition_count(256, 16) == 28
    assert windowed_addition_count(256, 15) == 31  # ceil(512/15) = 35
    assert windowed_addition_count(10, 1) == 16
    with pytest.raises(ValueError, match="window must be >= 1, got 0"):
        windowed_addition_count(256, 0)
    with pytest.raises(ValueError, match=r"window 2 leaves no windowed additions at n=4"):
        windowed_addition_count(4, 2)


def test_ecdlp_totals_match_hand_arithmetic() -> None:
    # (2,100,000 + 196,608) * 28 and (2,700,000 + 196,608) * 28
    assert ecdlp_toffoli(_LEAN) == 64_305_024
    assert ecdlp_toffoli(_WIDE) == 81_105_024
    assert ecdlp_qubits(_LEAN) == 1191
    assert ecdlp_qubits(_WIDE) == 1441


@pytest.mark.parametrize("pa", [0, 1_000, 2_100_000])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_ecdlp_toffoli_matches_definition_on_a_grid(pa: int, n: int) -> None:
    for w in range(1, 2 * n // 5 + 1):
        count = math.ceil(Fraction(2 * n, w)) - 4
        expected = (pa + 3 * 2**w) * count
        assert ecdlp_toffoli(PointAddCost(pa, 0, n, w)) == expected


def test_totals_near_the_optimum_window() -> None:
    by_window = {
        w: ecdlp_toffoli(PointAddCost(2_100_000, 0, 256, w)) for w in (15, 16, 17, 18)
    }
    assert by_window == {
        15: 68_147_424,
        16: 64_305_024,
        17: 67_316_832,
        18: 72_160_800,
    }
    wide = {
        w: ecdlp_toffoli(PointAddCost(2_700_000, 0, 256, w)) for w in (15, 16, 17, 18)
    }
    assert wide == {
        15: 86_747_424,
        16: 81_105_024,
        17: 83_516_832,
        18: 87_160_800,
    }


def _brute_best_window(cost_at, n: int) -> int:
    best_w, best = None, None
    for w in range(1, 2 * n // 5 + 1):
        count = math.ceil(Fraction(2 * n, w)) - 4
        total = (int(cost_at(w)) + 3 * 2**w) * count
        if best is None or total < best:
            best, best_w = total, w
    return best_w


def test_optimal_window() -> None:
    assert optimal_window(2_100_000, 256) == 16
    assert optimal_window(2_700_000, 256) == 16
    # with no per-addition core the lookup overhead dominates immediately
    assert optimal_window(0, 256) == 2
    for pa in (0, 1_000, 2_100_000, 2_700_000):
        for n in (16, 64, 256):
            assert optimal_window(pa, n) == _brute_best_window(lambda _w: pa, n)
    with pytest.raises(ValueError, match="no feasible window at n=2"):
        optimal_window(2_100_000, 2)


def test_optimal_window_accepts_window_dependent_costs_and_breaks_ties_low() -> None:
    assert optimal_window(lambda w: 100_000 * w, 256) == _brute_best_window(
        lambda w: 100_000 * w, 256
    )
    # engineered tie at n=10: (10 + 12) * 6 == (20 + 24) * 3 == 132
    table = {1: 10, 2: 10, 3: 20, 4: 100}
    assert optimal_window(lambda w: table[w], 10) == 2


def test_runtime_is_reaction_limited() -> None:
    machine = MachineProfile(reaction_time=1e-5, round_time=1e-6)
    assert runtime(70_000_000, machine) == 1050
    assert runtime(90_000_000, machine) == 1350
    assert isinstance(runtime(70_000_000, machine), int)
    # decimal-exact: 64,305,024 * 1e-5 * 1.5
    assert runtime(64_305_024, machine) == 964.57536
    assert runtime(140_000_000, machine) == 2 * runtime(70_000_000, machine)
    bare = MachineProfile(reaction_time=1e-5, round_time=1e-6, toffoli_overhead_fraction=0)
    assert runtime(10**7, bare) == 100
    with pytest.raises(ValueError, match="toffoli count must be >= 0"):
        runtime(-1, machine)


def test_primed_attack_time_halves_the_full_run() -> None:
    assert primed_attack_time(1050) == 525
    assert primed_attack_time(1350) == 675
    assert primed_attack_time(964.57536) == 482.28768
    with pytest.raises(ValueError, match="runtime must be strictly positive"):
        primed_attack_time(0)


def test_t_production_and_factory_size_are_inverses() -> None:
    microsecond = MachineProfile(reaction_time=1e-5, round_time=1e-6)
    assert t_production_rate(microsecond) == 200_000
    millisecond = MachineProfile(reaction_time=1e-3, round_time=1e-3)
    assert t_production_rate(millisecond) == 200
    big = MachineProfile(reaction_time=1e-3, round_time=1e-3, cultivation_qubits=200_000)
    assert t_production_rate(big) == 4000

    assert t_factory_qubits(5e5, microsecond) == 25_000
    slow_rounds = MachineProfile(reaction_time=1e-5, round_time=100e-6)
    assert t_factory_qubits(5e5, slow_rounds) == 2_500_000
    for machine in (microsecond, millisecond, big):
        assert t_factory_qubits(t_production_rate(machine), machine) == machine.cultivation_qubits
    with pytest.raises(ValueError, match="t_rate must be >= 0"):
        t_factory_qubits(-1, microsecond)


def test_magic_limited_key_time() -> None:
    machine = MachineProfile(reaction_time=1e-5, round_time=1e-6)
    assert magic_limited_key_time(64_305_024, machine) == 321.52512
    doubled = MachineProfile(
        reaction_time=1e-5, round_time=1e-6, toffoli_to_t_factor=2
    )
    assert magic_limited_key_time(64_305_024, doubled) == 2 * 321.52512
    with pytest.raises(ValueError, match="toffoli count must be >= 0"):
        magic_limited_key_time(-5, machine)


def test_toffoli_to_t_factor_reconciles_both_anchor_timings() -> None:
    # Two factory sizes on a millisecond clock anchor a 14-hour and a
    # 12-day key-recovery time for the same 7e7-Toffoli run.  Single-T
    # accounting reaches neither, but one shared Toffoli-to-T factor near
    # 2.9 lands within 2% of both, so the factor is a real constant of the
    # design rather than a per-machine fudge.
    toffoli = 70_000_000
    anchors = ((200_000, 50_400.0), (10_000, 1_036_800.0))

    def relative_errors(factor: float) -> list[float]:
        errors = []
        for cultivation_qubits, anchor_seconds in anchors:
            machine = MachineProfile(
                reaction_time=1e-3,
                round_time=1e-3,
                cultivation_qubits=cultivation_qubits,
                toffoli_to_t_factor=factor,
            )
            seconds = magic_limited_key_time(toffoli, machine)
            errors.append(abs(seconds - anchor_seconds) / anchor_seconds)
        return errors

    assert max(relative_errors(2.92)) < 0.02
    sweep = [round(2.5 + 0.01 * step, 2) for step in range(101)]
    assert any(max(relative_errors(factor)) < 0.02 for factor in sweep)
    assert min(relative_errors(1.0)) > 0.5


def test_onspend_success_values() -> None:
    base = onspend_success(AttackScenario(attack_time=540, mean_block_interval=600))
    assert base == pytest.approx(0.40657, abs=1e-4)
    assert base < 0.41
    assert onspend_success(AttackScenario(attack_time=2160, mean_block_interval=600)) < 0.03
    assert onspend_success(AttackScenario(attack_time=4320, mean_block_interval=600)) < 1 / 1300
    assert onspend_success(AttackScenario(attack_time=5400, mean_block_interval=600)) < 1 / 8000


def test_onspend_success_scales_with_machines_and_time() -> None:
    quick = AttackScenario(attack_time=100, mean_block_interval=600)
    slow = AttackScenario(attack_time=300, mean_block_interval=600)
    assert onspend_success(quick) > onspend_success(slow)
    assert 0 < onspend_success(slow) < 1

    # 3 signatures on 2 machines take two rounds; on 3+ machines, one
    multisig = AttackScenario(
        attack_time=540, mean_block_interval=600, signatures_required=3, machines=2
    )
    assert onspend_success(multisig) == pytest.approx(math.exp(-2 * 540 / 600))
    saturated = AttackScenario(
        attack_time=540, mean_block_interval=600, signatures_required=3, machines=3
    )
    assert onspend_success(saturated) == pytest.approx(math.exp(-540 / 600))
    assert onspend_success(
        AttackScenario(540, 600, signatures_required=3, machines=5)
    ) == onspend_success(saturated)


def test_partitions_and_speedup() -> None:
    assert partition_even(11, 208) == 19
    assert partition_even(4, 208) == 52
    assert partition_even(3, 208) == 70  # rounds up
    assert partition_reference(11, 208) == 32  # the published schedule
    assert partition_reference(4, 208) == 52  # falls back to the even split

    assert multi_machine_speedup(11, 208) == 6.5
    assert multi_machine_speedup(1, 208) == 1
    assert multi_machine_speedup(2, 208) == 2
    assert multi_machine_speedup(11, 208, partition=partition_even) == pytest.approx(208 / 19)
    assert multi_machine_speedup(11, 208, partition=lambda m, t: 16) == 13
    with pytest.raises(ValueError, match="nonpositive per-machine share"):
        multi_machine_speedup(11, 208, partition=lambda m, t: 0)
    with pytest.raises(ValueError, match="machines must be >= 1"):
        partition_even(0, 208)
    with pytest.raises(ValueError, match="total_additions must be >= 1"):
        partition_even(3, 0)


def test_salvage_timeline_frozen_curve() -> None:
    wallets = [
        WalletRecord(balance=900, label="b"),
        WalletRecord(balance=2000, label="a"),
        WalletRecord(balance=120, keys_required=3, label="c"),
    ]
    curve = salvage_timeline(wallets, per_key_time=482.28768)
    assert curve == [
        (0.0, 0.0),
        (482.28768, 2000.0),
        (964.57536, 2900.0),
        (2411.4384, 3020.0),
    ]


def test_salvage_timeline_orders() -> None:
    wallets = [
        WalletRecord(balance=120, keys_required=3),
        WalletRecord(balance=900),
        WalletRecord(balance=2000),
    ]
    given = salvage_timeline(wallets, per_key_time=1, order="given")
    assert given == [(0.0, 0.0), (3.0, 120.0), (4.0, 1020.0), (5.0, 3020.0)]
    richest = salvage_timeline(wallets, per_key_time=1)
    # any order spends the same total time and recovers the same total value
    assert richest[-1] == given[-1]
    assert salvage_timeline([], per_key_time=1) == []
    with pytest.raises(ValueError, match="per_key_time must be strictly positive"):
        salvage_timeline(wallets, per_key_time=0)
    with pytest.raises(ValueError, match="order must be 'richest-first' or 'given'"):
        salvage_timeline(wallets, per_key_time=1, order="poorest-first")


def test_richest_first_dominates_when_every_wallet_needs_one_key() -> None:
    balances = [7, 31, 2, 19]
    richest = salvage_timeline([WalletRecord(b) for b in balances], per_key_time=1)
    for ordering in itertools.permutations(balances):
        other = salvage_timeline(
            [WalletRecord(b) for b in ordering], per_key_time=1, order="given"
        )
        for (_, best), (_, got) in zip(richest, other):
            assert best >= got


def _settled_at(curve: list[tuple[float, float]], when: float) -> float:
    total = 0.0
    for time, amount in curve:
        if time <= when:
            total = amount
    return total


def test_richest_first_is_not_dominant_with_multikey_wallets() -> None:
    # a big slow wallet ahead of a nearly-as-big fast one loses the early game
    wallets = [
        WalletRecord(balance=100, keys_required=100),
        WalletRecord(balance=99, keys_required=1),
    ]
    richest = salvage_timeline(wallets, per_key_time=1)
    fast_first = salvage_timeline(reversed(wallets), per_key_time=1, order="given")
    assert _settled_at(richest, 50) == 0.0
    assert _settled_at(fast_first, 50) == 99.0
    assert _settled_at(richest, 101) == _settled_at(fast_first, 101) == 199.0


def test_input_validation() -> None:
    with pytest.raises(ValueError, match="point-addition costs must be non-negative"):
        PointAddCost(-1, 0, 256, 16)
    with pytest.raises(ValueError, match="bit length must be >= 1, got 0"):
        PointAddCost(1, 1, 0, 16)
    with pytest.raises(ValueError, match="window must be >= 0, got -1"):
        PointAddCost(1, 1, 256, -1)
    with pytest.raises(ValueError, match="reaction_time must be strictly positive"):
        MachineProfile(reaction_time=0, round_time=1e-6)
    with pytest.raises(ValueError, match="round_time must be strictly positive"):
        MachineProfile(reaction_time=1e-5, round_time=-1e-6)
    with pytest.raises(ValueError, match="t_state_cost must be strictly positive"):
        MachineProfile(reaction_time=1e-5, round_time=1e-6, t_state_cost=0)
    with pytest.raises(ValueError, match="toffoli_overhead_fraction must be >= 0"):
        MachineProfile(reaction_time=1e-5, round_time=1e-6, toffoli_overhead_fraction=-0.1)
    with pytest.raises(ValueError, match="times must be strictly positive"):
        AttackScenario(attack_time=0, mean_block_interval=600)
    with pytest.raises(ValueError, match="must be >= 1"):
        AttackScenario(attack_time=540, mean_block_interval=600, machines=0)
    with pytest.raises(ValueError, match="balance must be >= 0"):
        WalletRecord(balance=-1)
    with pytest.raises(ValueError, match="keys_required must be >= 1"):
        WalletRecord(balance=1, keys_required=0)


def test_optimal_window_stops_once_the_table_overhead_alone_loses() -> None:
    calls: list[int] = []

    def counted(w: int) -> int:
        calls.append(w)
        return 1

    assert optimal_window(counted, 10**9) == 2
    assert len(calls) < 64  # a full sweep would call it 4 * 10^8 times
    for n in list(range(3, 200)) + [256, 384, 521, 1000, 4096]:
        for cost_at in (lambda _w: 0, lambda _w: 1_000, lambda w: 100_000 * w, lambda w: 4**w):
            assert optimal_window(cost_at, n) == _brute_best_window(cost_at, n)


def test_onspend_success_below_the_smallest_float_is_zero() -> None:
    for interval in (1e-308, 1):
        scenario = AttackScenario(attack_time=1e308, mean_block_interval=interval)
        assert onspend_success(scenario) == 0.0


def test_salvage_beyond_the_float_range_is_a_value_error() -> None:
    wallets = [WalletRecord(balance=1e308, keys_required=10)]
    with pytest.raises(ValueError, match="beyond the float range"):
        salvage_timeline(wallets, per_key_time=1e308)
    with pytest.raises(ValueError, match="beyond the float range"):
        salvage_timeline([WalletRecord(balance=1e308)] * 2, per_key_time=1)


def test_windows_above_the_ceiling_are_refused_before_any_shift() -> None:
    from kickmix.costmodel import MAX_WINDOW

    assert MAX_WINDOW == 4096
    assert ecdlp_qubits(PointAddCost(1, 0, 10**5, MAX_WINDOW)) == MAX_WINDOW
    with pytest.raises(ValueError, match="window 4097 is above the ceiling of 4096"):
        PointAddCost(1, 0, 10**5, MAX_WINDOW + 1)
    with pytest.raises(ValueError, match="window must be an integer, got 2.5"):
        PointAddCost(1, 0, 256, 2.5)
    # The sweep never builds a cost above the ceiling, however large the core.
    assert optimal_window(10**1300, 10**9) == MAX_WINDOW
