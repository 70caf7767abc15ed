"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Run from the root of a source checkout.  They check the generator, the
output checks, the tracer and the command's contract, using only cheap
jobs (about 15 s in all).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _take(workload, seed, count):
    stream = workloads.rounds(workload, seed)
    return [next(stream) for _ in range(count)]


def _cli_run(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(_take(workload, 7, 3), _take(workload, 7, 3))
            self.assertNotEqual(_take(workload, 7, 3), _take(workload, 8, 3))

    def test_rounds_hold_the_same_class_mix(self):
        for workload in workloads.WORKLOADS:
            mixes = {
                tuple(sorted(job.kind for job in rnd if not job.repeat))
                for seed in (1, 2)
                for rnd in _take(workload, seed, 4)
            }
            self.assertEqual(len(mixes), 1, workload)

    def test_every_argv_parses(self):
        from qhermite2.cli import _build_parser

        parser = _build_parser()
        for workload in workloads.WORKLOADS:
            for rnd in _take(workload, 3, 5):
                for job in rnd:
                    # A bare negative value would be read as an option.
                    self.assertTrue(all(a.startswith("--") for a in job.argv[1:]), job.argv)
                    with contextlib.redirect_stderr(io.StringIO()):
                        parser.parse_args(list(job.argv))

    def test_short_jobs_plant_repeats(self):
        rounds = _take("short_jobs", 5, 3)
        seen = {job.argv for job in rounds[0]}
        repeats = [job for job in rounds[1] if job.repeat]
        self.assertEqual(len(repeats), 2)
        self.assertTrue(all(job.argv in seen for job in repeats))


class MetricNameTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(end_to_end, run.END_TO_END_UNITS)
        self.assertEqual(per_layer, dict(run.per_layer_names()))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for name in [*end_to_end, *per_layer]:
            self.assertRegex(name, NAME)

    def test_tail_needs_ten_jobs_beyond(self):
        self.assertEqual(run.tail([float(i) for i in range(100)]), (90.0, 89.0, 10))
        self.assertEqual(run.tail([float(i) for i in range(49)]), (75.0, 36.0, 12))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (100.0, 3.0, 0))


class ChecksTest(unittest.TestCase):
    def test_roots_are_checked(self):
        argv = ("measure", "--q=1/2", "--precision-bits=128", "--format=csv",
                "--type=extremal", "--bound=6")
        header = "x,sigma0,kernel_mass,carrier_residual,terms_used\n"
        roots = ["0.87903921114983042560616", "5.19714951138730836842013"]
        xs = [f"-{r}" for r in reversed(roots)] + roots
        good = header + "".join(f"{x},1,1,0,20\n" for x in xs)
        self.assertEqual(checks.check("extremal-one-root", argv, 0, good), (True, None))
        bad = good.replace("5.19714951138730836842013", "5.19714951138730836942013")
        certified, problem = checks.check("extremal-one-root", argv, 0, bad)
        self.assertFalse(certified)
        self.assertIn("frozen", problem)

    def test_usage_errors_and_bad_output_are_problems(self):
        argv = ("table", "--q=1/3", "--precision-bits=64", "--format=json", "--what=bn", "--n-max=4")
        self.assertEqual(checks.check("table-bn", argv, 2, ""), (False, "exit code 2"))
        self.assertIsNotNone(checks.check("table-bn", argv, 0, "not json")[1])
        error = json.dumps({"schema_version": "1", "error": {"type": "NoConvergenceError"}})
        self.assertEqual(checks.check("table-bn", argv, 3, error), (False, None))


class TracerTest(unittest.TestCase):
    ARGVS = (
        ("poly", "--q=2/7", "--precision-bits=128", "--format=csv", "--n=6", "--x=-3/5"),
        ("cs", "--q=5/9", "--precision-bits=256", "--format=json", "--z-re=-1/2", "--z-im=1/3"),
        ("verify", "--q=1/3", "--precision-bits=256", "--format=csv", "--suite=recurrence"),
    )

    def test_traced_output_identical_and_wrappers_removed(self):
        import qhermite2
        import qhermite2.cli as cli
        import qhermite2.qhermite as qh

        before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if name.startswith("qhermite2")}
        plain = [_cli_run(cli, argv) for argv in self.ARGVS]
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(qh.b_coeff, before["qhermite2.qhermite"]["b_coeff"])
            self.assertIs(qh.b_coeff, qhermite2.b_coeff)
            traced = [_cli_run(cli, argv) for argv in self.ARGVS]
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        for name, attrs in before.items():
            for attr, value in attrs.items():
                self.assertIs(getattr(sys.modules[name], attr), value, f"{name}.{attr}")
        self.assertEqual(tracer.stats["cli.main"].calls, len(self.ARGVS))
        self.assertGreater(tracer.stats["qhermite.hermite2_eval_direct"].calls, 0)


class CommandTest(unittest.TestCase):
    def _copy_bench(self, tmp: Path) -> None:
        shutil.copytree(BENCH, tmp / "bench", ignore=shutil.ignore_patterns("__pycache__"))

    def _run(self, cwd: Path, workload="short_jobs"):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
        )

    def test_prints_every_metric_with_unit(self):
        proc = self._run(ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         run.END_TO_END_UNITS)
        for name in [*run.END_TO_END_UNITS, "fail_frac"]:
            self.assertRegex(proc.stdout, rf"(?m)^{name} ")

    def test_exits_nonzero_when_an_output_check_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            self._copy_bench(tmp)
            package = tmp / "src" / "qhermite2"
            package.mkdir(parents=True)
            (package / "__init__.py").write_text("")
            (package / "context.py").write_text(
                "class PrecisionContext:\n    def __init__(self, **kwargs):\n        pass\n"
            )
            (package / "cli.py").write_text(
                "import sys\n\ndef main(argv):\n    sys.stdout.write('garbage\\n')\n    return 0\n"
            )
            proc = self._run(tmp)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertIn("output check failed", proc.stderr)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            self._copy_bench(Path(tmp))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = self._run(Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
