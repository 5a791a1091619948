"""Smoke test of the benchmark command: every workload once per trace
setting at toy size, every BENCHMARK.json metric printed with its unit,
and no failed operation.

    python3 -m unittest discover -s hypbench/tests
"""

import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "run.py")


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        done = subprocess.run([sys.executable, RUN, "--smoke"], check=False,
                              stdout=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout)


if __name__ == "__main__":
    unittest.main()
