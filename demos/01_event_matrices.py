"""Event matrices: loading, missingness structure, and pairwise counts.

Builds a small ternary matrix the way a delimited read table would load,
then walks through the summary statistics everything else builds on.
"""

import numpy as np

from causalchron import (
    EventMatrix,
    contingency,
    cooccurrence_counts,
    missingness_profile,
)

# a hand-written table: 1 = event seen on the read, 0 = not seen, -1 = no coverage
labels = ("site_101", "site_205", "site_310")
values = np.array(
    [
        [1, 1, 1],
        [1, 1, -1],
        [0, 0, 0],
        [1, -1, -1],
        [0, 1, 1],
        [1, 1, 1],
        [0, 0, -1],
        [1, 1, 0],
    ],
    dtype=np.int8,
)
matrix = EventMatrix(labels, values)

profile = missingness_profile(matrix)
print("missing fraction per column:")
for label, fraction in zip(profile.columns, profile.missing_fraction):
    print(f"  {label}: {fraction:.2f}")
print(f"fully observed rows: {profile.fully_observed_rows} of {matrix.n_rows}")
print(f"rows with a single missing block: {profile.rows_single_block_fraction:.0%}")

# pairwise counts omit rows where either column is unobserved
t = contingency(matrix, "site_101", "site_205")
print(f"\njoint counts for (site_101, site_205): "
      f"n00={t.n00} n01={t.n01} n10={t.n10} n11={t.n11} (total {t.total})")

# co-occurrence patterns of one event across fully observed rows
patterns = cooccurrence_counts(matrix, "site_101")
print("\nsite_101 co-occurrence patterns (fully observed rows only):")
for others, count in sorted(patterns.items(), key=lambda kv: sorted(kv[0])):
    label = " + ".join(sorted(others)) if others else "(alone)"
    print(f"  {label}: {count}")
