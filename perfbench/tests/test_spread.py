"""Self-test of the quartile spread used for the benchmark's bounds.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import spread  # noqa: E402


class QuartileSpread(unittest.TestCase):
    def test_matches_exclusive_quartiles(self):
        # statistics.quantiles' default "exclusive" method on 1..10:
        # q1 = 2.75, q3 = 8.25, median 5.5 -> spread 1.0.
        self.assertAlmostEqual(spread.quartile_spread(range(1, 11)), 1.0)

    def test_ten_runs_of_a_steady_metric(self):
        vals = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        # q1 = 99, q3 = 101 -> 2 / 100.
        self.assertAlmostEqual(spread.quartile_spread(vals), 0.02)

    def test_order_does_not_matter(self):
        vals = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(spread.quartile_spread(vals),
                         spread.quartile_spread(sorted(vals)))

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread.quartile_spread([7.5] * 10), 0.0)

    def test_zero_median_reads_zero(self):
        self.assertEqual(spread.quartile_spread([0, 0, 0, 0]), 0.0)


class WorseBy(unittest.TestCase):
    def test_direction(self):
        self.assertAlmostEqual(spread.worse_by([10, 10], [11, 11], "lower"),
                               0.1)
        self.assertAlmostEqual(spread.worse_by([10, 10], [11, 11], "higher"),
                               -0.1)

    def test_seed_ranges(self):
        self.assertEqual(spread.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()
