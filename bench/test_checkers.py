"""The benchmark's checkers accept the simulator's real outputs and reject
corrupted ones.  Run with ``python3 -m unittest discover -s bench``."""

from __future__ import annotations

import dataclasses
import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checkers  # noqa: E402
import inputs  # noqa: E402
from transient_sim import attacks, core, covert, isa, profiles  # noqa: E402


def engine_final(program, inp, profile_name: str) -> dict:
    prof = profiles.get_profile(profile_name)
    state = core.make_machine(prof)
    state.regs = list(inp.regs)
    state.mem.cells = dict(inp.mem)
    state.sysregs = dict(inp.sysregs)
    trace = core.run(program, state, prof)
    return {"regs": state.regs, "flags": state.flags, "pc": state.pc,
            "mem": state.mem.cells, "halted": trace.halted, "abort": trace.abort}


class EngineChecker(unittest.TestCase):
    def setUp(self):
        self.inp = inputs.acyclic_program(random.Random(11))
        self.program = isa.assemble(self.inp.text)
        self.expected = checkers.interpret(self.program, self.inp.regs, dict(self.inp.mem),
                                           dict(self.inp.sysregs))

    def test_accepts_every_profile(self):
        for name in checkers.PROFILE_ORDER:
            got = engine_final(self.program, self.inp, name)
            self.assertEqual(checkers.check_engine_run(self.expected, got), [], name)

    def test_rejects_a_changed_register(self):
        got = engine_final(self.program, self.inp, "intel_i7")
        got["regs"] = list(got["regs"])
        got["regs"][3] += 1
        self.assertIn("registers [3] differ", checkers.check_engine_run(self.expected, got))

    def test_rejects_changed_flags_pc_and_memory(self):
        got = engine_final(self.program, self.inp, "cortex_a53")
        got.update(flags=got["flags"] + 2, pc=got["pc"] + 1,
                   mem={**got["mem"], inputs.DATA_BASE: -1})
        self.assertEqual(len(checkers.check_engine_run(self.expected, got)), 3)

    def test_rejects_a_run_that_did_not_halt(self):
        got = engine_final(self.program, self.inp, "cortex_a9")
        self.assertTrue(checkers.check_engine_run(self.expected, {**got, "halted": False}))
        self.assertTrue(checkers.check_engine_run(self.expected, {**got, "abort": "limit"}))

    def test_loops_run_thousands_of_iterations(self):
        inp = inputs.loop_program(random.Random(5))
        program = isa.assemble(inp.text)
        expected = checkers.interpret(program, inp.regs, dict(inp.mem), dict(inp.sysregs))
        self.assertEqual(expected["regs"][12], 0)
        got = engine_final(program, inp, "cortex_a53")
        self.assertEqual(checkers.check_engine_run(expected, got), [])


class GridChecker(unittest.TestCase):
    SECRET = bytes((9, 200, 77))

    @classmethod
    def setUpClass(cls):
        cls.results = attacks.run_matrix(secret=cls.SECRET, seed=3)

    def test_paper_grid_is_the_golden_grid(self):
        golden = {c: dict(row) for c, row in attacks.EXPECTED_SUSCEPTIBILITY.items()}
        self.assertEqual(checkers.PAPER_GRID, golden)

    def test_accepts_the_unmitigated_grid(self):
        self.assertEqual(checkers.check_grid(self.results, "none", self.SECRET), [])

    def test_rejects_a_flipped_cell(self):
        flipped = {cell: dict(row) for cell, row in self.results.items()}
        outcome = flipped["rsb-mem"]["cortex_a72"]
        flipped["rsb-mem"]["cortex_a72"] = dataclasses.replace(outcome, success=True)
        problems = checkers.check_grid(flipped, "none", self.SECRET)
        self.assertIn("none: rsb-mem/cortex_a72 leaked=True", problems)

    def test_rejects_wrong_recovered_bytes(self):
        wrong = {cell: dict(row) for cell, row in self.results.items()}
        outcome = wrong["v4"]["intel_i7"]
        wrong["v4"]["intel_i7"] = dataclasses.replace(outcome, recovered=(9, 200, 78))
        self.assertTrue(checkers.check_grid(wrong, "none", self.SECRET))

    def test_rejects_an_unmitigated_grid_as_mitigated(self):
        self.assertTrue(checkers.check_grid(self.results, "privileged_flush", self.SECRET))
        self.assertTrue(checkers.check_grid(self.results, "rsb_refill_on_cs", self.SECRET))

    def test_rejects_json_that_does_not_match(self):
        grid = {c: {p: o.success for p, o in row.items()} for c, row in self.results.items()}
        self.assertEqual(checkers.check_grid_json({"susceptibility": grid}, self.results), [])
        grid["v3"]["cortex_a9"] = True
        self.assertTrue(checkers.check_grid_json({"susceptibility": grid}, self.results))


class ChannelChecker(unittest.TestCase):
    MESSAGE = bytes((0x48, 0x49, 0x00, 0xFF, 0x5A))

    def transfer(self, profile, **config):
        return covert.run_channel(profiles.get_profile(profile),
                                  covert.ChannelConfig(**config), self.MESSAGE)

    def test_symbols_match_the_package_packing(self):
        for bits in range(1, 7):
            self.assertEqual(checkers.symbols_of(self.MESSAGE, bits),
                             covert.pack_symbols(self.MESSAGE, bits))

    def test_accepts_clean_transfers(self):
        for bits in range(1, 7):
            report = self.transfer("cortex_a72", bits_per_cs=bits)
            self.assertEqual(checkers.check_clean_transfer(report, self.MESSAGE, bits), [])

    def test_rejects_a_wrong_decoded_byte(self):
        report = self.transfer("intel_i7", bits_per_cs=3)
        report.decoded = b"\x48\x48" + report.decoded[2:]
        self.assertEqual(checkers.check_clean_transfer(report, self.MESSAGE, 3),
                         ["decoded payload differs from the one sent"])

    def test_rejects_cycles_off_the_cost_law(self):
        report = self.transfer("intel_i7", bits_per_cs=4)
        report.total_cycles += 1
        self.assertTrue(checkers.check_clean_transfer(report, self.MESSAGE, 4))

    def test_noisy_checker_rejects_a_misdecoded_symbol_and_a_rate_off_bound(self):
        message = bytes(range(256)) * 3
        report = covert.run_channel(profiles.get_profile("intel_i7"),
                                    covert.ChannelConfig(bits_per_cs=3, noise_probability=0.05),
                                    message)
        self.assertEqual(checkers.check_noisy_transfer(report, message, 3, 0.05), [])
        report.confusion[(2, 5)] = 1
        self.assertIn("1 symbols decoded to a wrong value",
                      checkers.check_noisy_transfer(report, message, 3, 0.05))
        del report.confusion[(2, 5)]
        report.erasures = report.symbols_sent // 4
        self.assertTrue(checkers.check_noisy_transfer(report, message, 3, 0.05))

    def test_dark_checker(self):
        report = self.transfer("cortex_a9", bits_per_cs=3)
        self.assertEqual(checkers.check_dark_transfer(report, self.MESSAGE, 3), [])
        report = self.transfer("intel_i7", bits_per_cs=3)
        self.assertTrue(checkers.check_dark_transfer(report, self.MESSAGE, 3))

    def test_latency_grid_rejects_a_moved_hit(self):
        report = covert.run_channel(profiles.get_profile("intel_i7"),
                                    covert.ChannelConfig(bits_per_cs=2), self.MESSAGE,
                                    record_latencies=True)
        csv_text = covert.latency_trace_to_csv(report)
        self.assertEqual(checkers.check_latency_grid(report.latencies, csv_text,
                                                     self.MESSAGE, 2, 102), [])
        row = report.latencies[0]
        row.reverse()
        self.assertTrue(checkers.check_latency_grid(report.latencies, csv_text,
                                                    self.MESSAGE, 2, 102))


if __name__ == "__main__":
    unittest.main()
