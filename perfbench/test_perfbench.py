"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root:

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stream  # noqa: E402
import tracing  # noqa: E402

sys.path.append(run.SRC)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        now = [0.0]
        tracer = tracing.Tracer(clock=lambda: now[0])
        fns = {}

        def leaf():
            now[0] += 1

        def middle():
            now[0] += 2
            fns["leaf"]()
            now[0] += 3

        def root():
            now[0] += 1
            fns["middle"]()
            fns["middle"]()
            now[0] += 4

        for name, fn in (("leaf", leaf), ("middle", middle), ("root", root)):
            fns[name] = tracer.wrap(name, fn)
        fns["root"]()
        totals = tracer.totals()
        self.assertEqual(totals["root"], {"calls": 1, "self_s": 5.0})
        self.assertEqual(totals["middle"], {"calls": 2, "self_s": 10.0})
        self.assertEqual(totals["leaf"], {"calls": 2, "self_s": 2.0})
        self.assertEqual(now[0], sum(t["self_s"] for t in totals.values()))

    def test_span_closes_when_the_call_raises(self):
        now = [0.0]
        tracer = tracing.Tracer(clock=lambda: now[0])

        def fail():
            now[0] += 2
            raise ValueError

        def outer():
            now[0] += 1
            try:
                wrapped_fail()
            except ValueError:
                pass

        wrapped_fail = tracer.wrap("fail", fail)
        tracer.wrap("outer", outer)()
        self.assertEqual(tracer.totals()["fail"], {"calls": 1, "self_s": 2.0})
        self.assertEqual(tracer.totals()["outer"], {"calls": 1, "self_s": 1.0})


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(run.percentile(samples, 50), 50)
        self.assertEqual(run.percentile(samples, 99), 99)
        self.assertEqual(run.percentile([7.0], 99), 7.0)

    def test_tail_picks_highest_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(1, 1001))), (99, 990))
        self.assertEqual(run.beyond(list(range(1000)), 99), 10)
        # 999 samples leave only 9 beyond p99, so p95 is the highest
        self.assertEqual(run.tail_percentile(list(range(1, 1000))), (95, 950))
        self.assertEqual(run.tail_percentile(list(range(1, 10001)))[0], 99.9)
        self.assertIsNone(run.tail_percentile(list(range(15))))


class PatchesTest(unittest.TestCase):
    def test_wraps_every_binding_and_restores(self):
        from affine_fock import cli, frenkel_kac, maya, partitions

        original = partitions.remove_node
        init = frenkel_kac.Vec.__init__
        layers = {
            "scan": [("partitions", "remove_node")],
            "vec": [("fock", "Vec.__init__")],
            "gone": [("maya", "no_such_function"), ("no_such_module", "f")],
        }
        tracer = tracing.Tracer()
        with tracing.Patches(tracer, layers) as patches:
            for namespace in (partitions, frenkel_kac, cli):
                self.assertIs(namespace.remove_node.__wrapped__, original)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["act", "--g", "e_1", "--lambda", "[2,1]", "--l", "2"])
        self.assertEqual(patches.absent, ["maya.no_such_function", "no_such_module.f"])
        self.assertEqual(tracer.totals()["gone"], {"calls": 0, "self_s": 0.0})
        self.assertGreater(tracer.totals()["vec"]["calls"], 0)
        for namespace in (partitions, frenkel_kac, cli):
            self.assertIs(namespace.remove_node, original)
        self.assertIs(frenkel_kac.Vec.__init__, init)
        self.assertFalse(hasattr(maya, "no_such_function"))


class WorkDoneTest(unittest.TestCase):
    def _traced_layers(self, command, call):
        metric = run.WITNESS[command[0]][0]
        tracer = tracing.Tracer()
        with tracing.Patches(tracer, {metric: tracing.LAYERS[metric]}):
            with contextlib.redirect_stdout(io.StringIO()):
                call()
        return tracer.totals()

    def test_witness_calls_match_the_comparisons_made(self):
        from affine_fock import cli, equivariant, fock, frenkel_kac

        cases = [
            (("boson-fermion", 3, 3), lambda: fock.verify_boson_fermion(3, 2)),
            (("frenkel-kac", 3, 4), lambda: frenkel_kac.verify_intertwining(3, 4)),
            (("geometric", 3, 6), lambda: equivariant.verify_geometric_match(3, 6)),
            (("fixed-points", 3, 6), lambda: equivariant.verify_fixed_points(3, 6)),
            (("relations", 3, 5), lambda: frenkel_kac.verify_relations(3, 5)),
            (("matrix f_0", 3, 6), lambda: cli.main(run.argv_of(("matrix f_0", 3, 6)))),
        ]
        for command, call in cases:
            layers = self._traced_layers(command, call)
            self.assertTrue(run.work_done(command, layers), command)
            # the work of degree d falls short of what degree d + 1 implies
            more = command[:2] + (command[2] + 1,)
            self.assertFalse(run.work_done(more, layers), command)

    def test_a_vacuous_pass_fails(self):
        empty = {name: {"calls": 0, "self_s": 0.0} for name in tracing.LAYERS}
        for command in run.GOLDEN:
            self.assertFalse(run.work_done(command, empty), command)
        self.assertEqual(run.implied_checks(("relations", 3, -1)), 0)


class StreamTest(unittest.TestCase):
    def test_queries_depend_only_on_the_seed(self):
        self.assertEqual(stream.make_queries(7), stream.make_queries(7))
        self.assertNotEqual(stream.make_queries(7), stream.make_queries(8))

    def test_abacus_weight_is_the_quotient_size(self):
        from affine_fock import core_quotient

        rng = random.Random(3)
        for l, weight in ((3, 0), (3, 5), (4, 2), (5, 3)):
            lam = stream.abacus_shape(l, [2] + [0] * (l - 2) + [-2], weight, rng)
            _, quotient = core_quotient.core_and_quotient(lam, l)
            self.assertEqual(sum(map(sum, quotient)), weight)

    def test_checks_accept_answers_and_reject_tampering(self):
        queries = stream.make_queries(0)[:40]
        for query in queries:
            reply = stream.answer(query)
            self.assertTrue(stream.check_answer(query, reply), query)
            if query["kind"] == "cq_roundtrip":
                reply["lam"] = reply["lam"][:-1]
            elif reply["image"]:
                reply["image"][0][1] = str(-int(reply["image"][0][1]))
            else:
                reply["image"] = [[[1], "1"]]
            self.assertFalse(stream.check_answer(query, reply), query)


class PeakRssTest(unittest.TestCase):
    def test_counts_the_command_not_the_harness(self):
        ballast = b"\x01" * (64 << 20)  # resident in the process that forks
        out, err, code = run.spawn(["-c", run.CLI_SNIPPET, *run.argv_of(("relations", 3, 4))])
        self.assertEqual(code, 0)
        self.assertEqual(json.loads(out)["status"], "ok")
        self.assertLess(run.peak_rss_mb(err), len(ballast) >> 20)


class GoldenTest(unittest.TestCase):
    def test_digests_reproduce(self):
        for command, digest in run.GOLDEN.items():
            out = subprocess.run(
                [sys.executable, "-B", "-m", "affine_fock", *run.argv_of(command)],
                capture_output=True,
                env=run.ENV,
                check=True,
            ).stdout
            self.assertEqual(hashlib.sha256(out).hexdigest(), digest, command)
            self.assertGreater(run.implied_checks(command), 0)


if __name__ == "__main__":
    unittest.main()
