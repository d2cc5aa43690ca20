"""Return-stack covert channel: cost law, fidelity, noise scaling, leak shape."""

import dataclasses
import hashlib
import json
import math
import random

import pytest

import transient_sim
from transient_sim.covert import (
    GADGET_BASE,
    LINE_BYTES,
    PROBE_BASE,
    ChannelConfig,
    ChannelReport,
    PrivilegedFlushError,
    gadget_address,
    latency_trace_to_csv,
    pack_symbols,
    receiver_decode,
    required_memory_bytes,
    run_channel,
    sender_inject,
    sweep_bits,
    unpack_symbols,
)
from transient_sim.core import make_machine, run
from transient_sim.isa import assemble
from transient_sim.memory import Latencies, Level
from transient_sim.mitigations import MitigationSet
from transient_sim.profiles import PROFILES, SquashPolicy, get_profile
from transient_sim.reporting import emit_report

I7 = get_profile("intel_i7")
A72 = get_profile("cortex_a72")


def closed_form_cost(profile, cfg: ChannelConfig) -> int:
    """Independent restatement of the per-symbol cycle budget."""
    depth = cfg.rsb_fill_depth or profile.rsb_size
    return (
        2 * cfg.context_switch_cost
        + 2 * depth
        + cfg.probe_cost_per_line * (1 << cfg.bits_per_cs)
    )


def _reference_pack(message: bytes, bits_per_cs: int) -> list[int]:
    """pack_symbols spelled out bit by bit."""
    bits: list[int] = []
    for byte in message:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    while len(bits) % bits_per_cs:
        bits.append(0)
    symbols = []
    for i in range(0, len(bits), bits_per_cs):
        value = 0
        for bit in bits[i : i + bits_per_cs]:
            value = (value << 1) | bit
        symbols.append(value)
    return symbols


def _reference_unpack(symbols: list[int], bits_per_cs: int, byte_count: int) -> bytes:
    """unpack_symbols spelled out bit by bit."""
    bits: list[int] = []
    for value in symbols:
        for shift in range(bits_per_cs - 1, -1, -1):
            bits.append((value >> shift) & 1)
    out = bytearray()
    for i in range(0, byte_count * 8, 8):
        byte = 0
        for bit in bits[i : i + 8]:
            byte = (byte << 1) | bit
        out.append(byte)
    return bytes(out)


class TestPacking:
    @pytest.mark.parametrize("bits", range(1, 7))
    def test_tables_match_the_bit_loop_reference(self, bits):
        rng = random.Random(500 + bits)
        for size in (*range(1, 41), 257):
            payload = bytes(rng.randrange(256) for _ in range(size))
            symbols = pack_symbols(payload, bits)
            assert symbols == _reference_pack(payload, bits), size
            assert unpack_symbols(symbols, bits, size) == _reference_unpack(symbols, bits, size)
            assert unpack_symbols(symbols, bits, size) == payload

    @pytest.mark.parametrize("bits", range(1, 7))
    def test_round_trip_random_payload(self, bits):
        rng = random.Random(bits)
        payload = bytes(rng.randrange(256) for _ in range(257))
        symbols = pack_symbols(payload, bits)
        assert all(0 <= s < (1 << bits) for s in symbols)
        assert unpack_symbols(symbols, bits, len(payload)) == payload

    def test_symbol_count_covers_all_bits(self):
        assert len(pack_symbols(b"\xff", 3)) == 3  # 8 bits / 3 -> 3 symbols

    def test_msb_first_order(self):
        assert pack_symbols(b"\x80", 1)[0] == 1
        assert pack_symbols(b"\x01", 1)[-1] == 1


class TestMemoryLaw:
    def test_memory_table(self):
        assert [required_memory_bytes(b) for b in range(1, 7)] == [
            128,
            256,
            512,
            1024,
            2048,
            4096,
        ]

    def test_report_carries_the_same_number(self):
        for bits in (1, 6):
            report = run_channel(I7, ChannelConfig(bits_per_cs=bits), b"\x5a")
            assert report.required_memory_bytes == (1 << bits) * LINE_BYTES


class TestCostLaw:
    @pytest.mark.parametrize("bits", range(1, 7))
    def test_total_cycles_equal_symbols_times_budget(self, bits):
        cfg = ChannelConfig(bits_per_cs=bits)
        report = run_channel(I7, cfg, b"HI")
        assert report.total_cycles == report.symbols_sent * closed_form_cost(I7, cfg)

    def test_bandwidth_is_bits_over_cost(self):
        cfg = ChannelConfig(bits_per_cs=3)
        report = run_channel(I7, cfg, b"HI")
        assert report.bandwidth_bits_per_cycle == pytest.approx(
            3 / closed_form_cost(I7, cfg), rel=1e-12
        )

    def test_huge_fill_depth_costs_cycles_not_host_time(self):
        # the depth costs cycles in the law, but the RSB keeps rsb_size entries
        depth = 10**9
        cfg = ChannelConfig(bits_per_cs=3, rsb_fill_depth=depth)
        report = run_channel(I7, cfg, b"HI")
        assert report.decoded == b"HI"
        assert report.total_cycles == report.symbols_sent * closed_form_cost(I7, cfg)
        deep, shallow = make_machine(I7), make_machine(I7)
        sender_inject(deep, 5, depth)
        sender_inject(shallow, 5, I7.rsb_size)
        assert deep.rsb.snapshot() == shallow.rsb.snapshot()
        assert deep.rsb.snapshot() == [gadget_address(5)] * I7.rsb_size

    def test_explicit_fill_depth_overrides_profile(self):
        cfg = ChannelConfig(bits_per_cs=2, rsb_fill_depth=4)
        report = run_channel(I7, cfg, b"\x0f")
        assert report.total_cycles == report.symbols_sent * closed_form_cost(I7, cfg)


class TestNoiseFreeFidelity:
    @pytest.mark.parametrize("bits", range(1, 7))
    def test_two_byte_message_is_exact(self, bits):
        report = run_channel(I7, ChannelConfig(bits_per_cs=bits), b"HI")
        assert report.decoded == b"HI"
        assert report.bit_errors == 0
        assert report.symbol_errors == 0

    @pytest.mark.parametrize("bits", range(1, 7))
    def test_one_kilobyte_random_message_is_exact(self, bits):
        payload = bytes(random.Random(bits * 17).randrange(256) for _ in range(1024))
        report = run_channel(I7, ChannelConfig(bits_per_cs=bits), payload)
        assert report.decoded == payload
        assert report.bit_errors == 0

    def test_a72_also_carries_the_channel(self):
        report = run_channel(A72, ChannelConfig(bits_per_cs=3), b"HI")
        assert report.decoded == b"HI"
        assert report.symbol_errors == 0


class TestBandwidthShape:
    def test_unimodal_with_peak_at_three_bits(self):
        reports = sweep_bits(I7)
        bw = [r.bandwidth_bits_per_cycle for r in reports]
        assert len(bw) == 6
        peak = bw.index(max(bw))
        assert peak == 2  # b = 3
        assert all(bw[i] < bw[i + 1] for i in range(peak))
        assert all(bw[i] > bw[i + 1] for i in range(peak, 5))

    def test_sweep_against_closed_form(self):
        for report in sweep_bits(I7):
            cfg = ChannelConfig(bits_per_cs=report.bits_per_cs)
            assert report.bandwidth_bits_per_cycle == pytest.approx(
                report.bits_per_cs / closed_form_cost(I7, cfg), rel=1e-12
            )

    def test_kb_per_mcycle_conversion(self):
        report = run_channel(I7, ChannelConfig(bits_per_cs=3), b"HI")
        expected = report.bandwidth_bits_per_cycle * 1e6 / 8192
        assert report.bandwidth_kb_per_mcycle == pytest.approx(expected)


class TestNoiseScaling:
    @pytest.mark.parametrize("p", [0.01, 0.05])
    def test_error_rate_tracks_injection_probability(self, p):
        # enough symbols that the 99% binomial interval is tight
        payload = bytes(
            random.Random(int(p * 1000)).randrange(256) for _ in range(37_500)
        )
        cfg = ChannelConfig(bits_per_cs=3, noise_probability=p)
        report = run_channel(I7, cfg, payload, seed=11)
        n = report.symbols_sent
        assert n >= 100_000
        rate = report.symbol_error_rate
        half_width = 2.5758 * math.sqrt(p * (1 - p) / n)
        assert abs(rate - p) <= half_width, f"rate {rate} vs p {p}"

    def test_noise_errors_are_all_erasures(self):
        cfg = ChannelConfig(bits_per_cs=3, noise_probability=0.2)
        report = run_channel(I7, cfg, bytes(range(256)), seed=3)
        assert report.symbol_errors == report.erasures > 0
        wrong_decodes = {
            got for (_, got), n in report.confusion.items() if n and got is not None
        } - set(pack_symbols(bytes(range(256)), 3))
        assert not wrong_decodes

    def test_probability_one_erases_everything(self):
        cfg = ChannelConfig(bits_per_cs=2, noise_probability=1.0)
        report = run_channel(I7, cfg, b"\xaa")
        assert report.symbol_errors == report.symbols_sent
        assert report.symbol_error_rate == 1.0


# The receiver's return run through the pipeline: the return stack predicts
# pc 1, the two-op gadget there touches the probe line, and the stack slot,
# cold in both cache levels, sends the return to the HALT.
RECEIVER_SRC = f"""
    RET
    MOVI r14, {PROBE_BASE}
    LD r9, [r14+0]
    HALT
"""
RECEIVER_SLOT = 0x8000


def pipeline_keeps_the_probe_fill(profile) -> bool:
    st = make_machine(profile)
    st.rsb.push(1)
    st.regs[15] = RECEIVER_SLOT
    st.mem.cells[RECEIVER_SLOT] = 3
    trace = run(assemble(RECEIVER_SRC), st, profile)
    assert trace.halted, trace.abort
    return st.mem.probe_level(PROBE_BASE) is not Level.DRAM


class TestChannelRequirements:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("policy", list(SquashPolicy), ids=lambda p: p.value)
    @pytest.mark.parametrize("extra", [0, 1, 2, 3, 5, 20])
    def test_window_rule_matches_the_pipeline(self, name, policy, extra):
        prof = get_profile(name).with_overrides(squash_policy=policy, return_resolve_extra=extra)
        report = run_channel(prof, ChannelConfig(bits_per_cs=3), b"HI")
        if pipeline_keeps_the_probe_fill(prof):
            assert report.decoded == b"HI" and report.erasures == 0
        else:
            assert report.erasures == report.symbols_sent == 6

    def test_window_rule_matches_the_pipeline_under_random_latencies(self):
        # the rule reads no latency: the gadget's probe load and the
        # return's stack load are both DRAM-deep, however deep DRAM is
        rng = random.Random(2121)
        names = sorted(PROFILES)
        outcomes = {True: 0, False: 0}
        for case in range(200):
            l1 = rng.randint(1, 30)
            l2 = rng.randint(l1 + 1, l1 + 60)
            dram = rng.randint(l2 + 1, 900)
            prof = get_profile(names[case % len(names)]).with_overrides(
                latencies=Latencies(l1_hit=l1, l2_hit=l2, dram=dram),
                squash_policy=rng.choice(list(SquashPolicy)),
                return_resolve_extra=rng.randint(0, 20),
            )
            report = run_channel(prof, ChannelConfig(bits_per_cs=3), b"HI")
            kept = pipeline_keeps_the_probe_fill(prof)
            if kept:
                assert report.decoded == b"HI" and report.erasures == 0, prof
            else:
                assert report.erasures == report.symbols_sent == 6, prof
            outcomes[kept] += 1
        assert min(outcomes.values()) >= 40

    def test_short_speculation_cores_cannot_carry_it(self):
        for prof in (get_profile("cortex_a9"), get_profile("cortex_a53")):
            report = run_channel(prof, ChannelConfig(bits_per_cs=3), b"HI")
            assert report.symbol_errors == report.symbols_sent
            assert report.decoded != b"HI"

    @pytest.mark.parametrize("name", ["cortex_a53", "cortex_a8"])
    @pytest.mark.parametrize(
        "overrides",
        [{"squash_policy": SquashPolicy.KEEP_INFLIGHT_FILLS}, {"return_resolve_extra": 20}],
        ids=["keep-inflight-fills", "slow-return-resolve"],
    )
    def test_in_order_cores_open_no_window(self, name, overrides):
        # the pipeline never predicts a return on an in-order core, so what
        # would admit a window on an out-of-order one changes nothing here
        prof = get_profile(name).with_overrides(**overrides)
        report = run_channel(prof, ChannelConfig(bits_per_cs=3), b"HI")
        assert report.erasures == report.symbols_sent == 6

    def test_gadget_misplaced_by_one_line_erases_everything(self):
        report = run_channel(
            I7, ChannelConfig(bits_per_cs=3), b"HI", gadget_base=GADGET_BASE + LINE_BYTES
        )
        assert report.erasures == report.symbols_sent

    def test_gadget_shifted_by_one_decodes_each_symbol_one_lower(self):
        # the receiver's gadgets sit one address up, so gadget s - 1 runs where
        # the sender meant s, and symbol 0's target falls below the window
        sent = pack_symbols(b"HI!", 3)
        report = run_channel(I7, ChannelConfig(bits_per_cs=3), b"HI!", gadget_base=GADGET_BASE + 1)
        zeros = sent.count(0)
        assert report.symbol_errors == len(sent) == 8
        assert report.erasures == zeros == 1
        wrong_bits = sum(bin(s ^ (s - 1)).count("1") for s in sent if s)
        assert report.bit_errors == 3 * zeros + wrong_bits == 20
        assert {(s, got) for s, got in report.confusion} == {
            (s, s - 1 if s else None) for s in sent
        }

    def test_rsb_flush_mitigation_leaves_no_information(self):
        armored = I7.with_overrides(mitigations=MitigationSet(rsb_flush_on_cs=True))
        payload = bytes(random.Random(8).randrange(256) for _ in range(150))  # 1200 bits
        report = run_channel(armored, ChannelConfig(bits_per_cs=3), payload)
        received = {got for (_, got) in report.confusion}
        assert received == {None}  # every symbol erased, zero mutual information
        assert report.bits_sent >= 1000

    def test_rsb_refill_mitigation_erases_every_symbol(self):
        # the refill buries the sender's entries under the benign return
        # address, which names no gadget, so no probe line ever lights
        armored = I7.with_overrides(mitigations=MitigationSet(rsb_refill_on_cs=True))
        report = run_channel(armored, ChannelConfig(bits_per_cs=3), b"HI")
        assert report.symbols_sent == 6
        assert report.erasures == report.symbols_sent
        assert {got for (_, got) in report.confusion} == {None}

    def test_privileged_flush_aborts_the_receiver(self):
        armored = I7.with_overrides(mitigations=MitigationSet(privileged_flush=True))
        report = run_channel(armored, ChannelConfig(bits_per_cs=3), b"HI")
        assert report.aborted
        assert report.bandwidth_bits_per_cycle == 0.0

    def test_privileged_flush_refuses_the_receiver_before_it_touches_the_machine(self):
        # a sender has stocked the RSB and a probe line is cached, so a
        # return, a fill, a BTB update, a reload or a flush would each show
        armored = I7.with_overrides(mitigations=MitigationSet(privileged_flush=True))
        config = ChannelConfig(bits_per_cs=3)
        state = make_machine(armored, seed=3)
        sender_inject(state, 5, config.fill_depth(armored))
        state.mem.fill(PROBE_BASE + 2 * LINE_BYTES)
        mem = state.mem

        def observed():
            return (state.rsb.snapshot(), dict(state.btb), mem.l1.lru_view(),
                    mem.l2.lru_view(), mem.counter.current, mem.rng.getstate())

        assert transient_sim.PrivilegedFlushError is PrivilegedFlushError
        before = observed()
        with pytest.raises(PrivilegedFlushError):
            receiver_decode(state, armored, config)
        assert observed() == before
        # without the mitigation the same call changes each of them
        receiver_decode(state, I7, config)
        assert all(a != b for a, b in zip(observed()[:5], before))


class TestConfigValidation:
    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            ChannelConfig(bits_per_cs=0)
        with pytest.raises(ValueError):
            ChannelConfig(bits_per_cs=7)

    def test_noise_probability_bounds(self):
        with pytest.raises(ValueError):
            ChannelConfig(bits_per_cs=3, noise_probability=-0.1)
        with pytest.raises(ValueError):
            ChannelConfig(bits_per_cs=3, noise_probability=1.5)

    def test_costs_must_not_be_negative(self):
        with pytest.raises(ValueError):
            ChannelConfig(bits_per_cs=3, context_switch_cost=-1)
        with pytest.raises(ValueError):
            ChannelConfig(bits_per_cs=3, probe_cost_per_line=-5)
        ChannelConfig(bits_per_cs=3, context_switch_cost=0)  # free switches allowed

    def test_fill_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            ChannelConfig(bits_per_cs=3, rsb_fill_depth=0)


class TestReporting:
    def test_sweep_csv_layout(self):
        lines = emit_report(sweep_bits(I7), "csv").splitlines()
        assert lines[0] == "b,bandwidth,errors,memory"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] == "128"

    def test_report_dict_is_json_ready(self):
        report = run_channel(I7, ChannelConfig(bits_per_cs=3), b"HI")
        payload = report.to_dict()
        json.dumps(payload)  # no exotic keys or values
        assert payload["profile"] == "intel_i7"
        assert payload["symbols_sent"] == report.symbols_sent

    def test_latency_recording_shape(self):
        report = run_channel(
            I7, ChannelConfig(bits_per_cs=2), b"\xf0", record_latencies=True
        )
        assert len(report.latencies) == report.symbols_sent
        assert all(len(row) == 4 for row in report.latencies)  # 2^2 probe lines


# Every width on the two cores that carry the channel and the two that do
# not, counter noise, interlopers, each RSB hook, an aborting receiver, fill
# depths below and above the RSB size, and a misplaced gadget.
PINNED_PAYLOAD = bytes(random.Random(5).randrange(256) for _ in range(48))
REPORTS_SHA256 = "19b3da4819beadd35a66d48d90a210c1acd2e862e0d2876e0fd16c48b3701c52"


def _pinned_channel_runs():
    for name in ("intel_i7", "cortex_a72", "cortex_a9", "cortex_a53"):
        for bits in range(1, 7):
            yield get_profile(name), ChannelConfig(bits_per_cs=bits), GADGET_BASE
    yield I7, ChannelConfig(bits_per_cs=3, noise_probability=0.05), GADGET_BASE
    for mit in (
        MitigationSet(rsb_flush_on_cs=True),
        MitigationSet(rsb_refill_on_cs=True),
        MitigationSet(pmu_noise_amplitude=40),
        MitigationSet(privileged_flush=True),
    ):
        yield I7.with_overrides(mitigations=mit), ChannelConfig(bits_per_cs=3), GADGET_BASE
    for depth in (3, 40):
        yield I7, ChannelConfig(bits_per_cs=3, rsb_fill_depth=depth), GADGET_BASE
    yield I7, ChannelConfig(bits_per_cs=3), GADGET_BASE + LINE_BYTES


def test_channel_report_bytes_are_unchanged():
    # every report field, the decoded bytes and each probe latency
    digest = hashlib.sha256()
    for profile, cfg, gadget_base in _pinned_channel_runs():
        report = run_channel(
            profile, cfg, PINNED_PAYLOAD, seed=3, gadget_base=gadget_base,
            record_latencies=True,
        )
        digest.update(emit_report(report, "json").encode())
        digest.update(json.dumps(report.latencies).encode() + b"\n")
    assert digest.hexdigest() == REPORTS_SHA256


# The latency trace of every pinned run: probe widths 2 to 64 lines,
# counter noise of +-40 and the aborted receiver's empty grid.
LATENCY_TRACE_SHA256 = "a1142fb0016c1981b8d05d8c40f9b56230cd9b0a71db9ed6ef7606ae448e0b16"


def test_latency_trace_bytes_are_unchanged():
    digest = hashlib.sha256()
    widths = set()
    for profile, cfg, gadget_base in _pinned_channel_runs():
        report = run_channel(
            profile, cfg, PINNED_PAYLOAD, seed=3, gadget_base=gadget_base,
            record_latencies=True,
        )
        widths |= {len(row) for row in report.latencies} if report.latencies else {0}
        digest.update(latency_trace_to_csv(report).encode())
    assert widths == {0, 2, 4, 8, 16, 32, 64}
    assert digest.hexdigest() == LATENCY_TRACE_SHA256


def test_latency_trace_matches_a_row_by_row_reference():
    def reference(grid):
        rows = ["symbol,line,latency"]
        for sym_idx, row in enumerate(grid):
            for line_idx, latency in enumerate(row):
                rows.append(f"{sym_idx},{line_idx},{latency}")
        return "\n".join(rows) + "\n"

    ragged = [[4, -3], [], [200], [7, 7, -40, 0], [], [12, 5], [-1] * 64]
    for grid in ([], [[]], ragged, [[-208, 3]] * 3):
        report = ChannelReport(
            profile="intel_i7", bits_per_cs=3, symbols_sent=len(grid), bits_sent=0,
            symbol_errors=0, bit_errors=0, erasures=0, total_cycles=0,
            required_memory_bytes=0, latencies=grid,
        )
        assert latency_trace_to_csv(report) == reference(grid)
    with pytest.raises(ValueError):
        latency_trace_to_csv(dataclasses.replace(report, latencies=None))
