"""Why incremental: membership tests are cheap, basis recomputation is not.

On a duplicates-heavy generator family the number of update steps stays
bounded (independently of m) while batch reduction has to chew through all
m vectors: each one in the span of the rows before it rebuilds the batch
engine, from a Hermite normal form, or, once the rows have full rank and
the new determinant comes out 1, by taking the state of Z^dim directly
after the row's Gram-Schmidt row.  The incremental construction does
neither for a member: it answers a row of Z^dim with no arithmetic at all,
and at full rank, once an update leaves a determinant above 1, it locates
each row against the lattice's Hermite normal form by back-substitution,
keeps the HNF through the updates and reduces it once at the end.  So the
gap shows in time and grows with m.  MLLL swaps (a count that does not
depend on the machine) stay few on both sides, since a reduction starts
from the HNF's independent rows or from the unit rows; the incremental
count holds only the swaps it ran, with no rebuild per full-rank update.
"""

from latkit.cli import bench_row
from latkit.reduction import DEFAULT_PARAMS

print(f"{'m':>5} {'updates':>8} {'bound':>8} {'swaps_i':>8} {'swaps_b':>8} "
      f"{'t_incr':>9} {'t_batch':>9}")
for m in (50, 100, 200):
    row = bench_row(seed=7, d=4, m=m, entry_range=10, duplicates=True,
                    params=DEFAULT_PARAMS)
    print(f"{row['m']:>5} {row['update_count']:>8} "
          f"{row['theorem_bound']:>8.2f} {row['swaps_incremental']:>8} "
          f"{row['swaps_batch']:>8} {row['t_incremental']:>9.4f} "
          f"{row['t_batch_mlll']:>9.4f}")
