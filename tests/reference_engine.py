"""Frozen reference: the MLLL swap loop of ``IncrementalLattice`` as it
stood before size reduction and the exchange were folded into ``_add``,
and its rebuild of a row in the span as it stood before a full-rank
rebuild that yields ``Z^dim`` took the identity state directly, both kept
verbatim as test code only.

``ReferenceLattice`` overrides ``_add``, ``_red``, ``_swap_rows`` and
``_swap`` with the copies below and inherits everything else (``insert``,
``extend``, the Gram-Schmidt row and the membership test).  A row in the
span rebuilds this engine from ``_column_hnf`` of its rows and that row at
every rank, by ``extend`` over the HNF through this loop, so a
differential test can require the engine's ``rows``, ``d``, ``lam`` and
``swaps`` to equal these after every step, rebuilds included.
"""

from __future__ import annotations

from typing import Sequence

from latkit.core import _column_hnf
from latkit.reduction import IncrementalLattice


class ReferenceLattice(IncrementalLattice):
    __slots__ = ()

    # -- the MLLL loop --------------------------------------------------
    def _add(self, row: Sequence[int], lam_row: list[int], dn: int) -> None:
        """Append b_n and run the swap loop from k = n until the basis is
        reduced again; a row in the span rebuilds from the HNF."""
        rows, d, lam = self.rows, self.d, self.lam
        if dn == 0:
            hnf = _column_hnf([*rows, row])
            del rows[:], lam[:], d[1:]
            self.extend(hnf)
            return
        n = len(rows)
        rows.append(row)
        lam.append(lam_row)
        d.append(dn)
        p, q = self._p, self._q
        k = max(n, 1)
        while k < len(rows):
            lk = lam[k]
            if 2 * abs(lk[k - 1]) > d[k]:
                self._red(k, k - 1)
            x = lk[k - 1]
            if q * (d[k + 1] * d[k - 1] + x * x) < p * d[k] * d[k]:
                self.swaps += 1
                self._swap(k)
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    if 2 * abs(lk[l]) > d[l + 1]:
                        self._red(k, l)
                k += 1

    def _red(self, k: int, l: int) -> None:
        """Size-reduce b_k by b_l, called when |mu_kl| > 1/2 (so slot l has
        b* != 0): subtract q b_l with q = floor(mu_kl + 1/2)."""
        lk = self.lam[k]
        x = lk[l]
        dl = self.d[l + 1]
        q = (2 * x + dl) // (2 * dl)
        rows = self.rows
        rows[k] = [a - q * c for a, c in zip(rows[k], rows[l])]
        lk[l] = x - q * dl
        ll = self.lam[l]
        for i in range(l):
            lk[i] -= q * ll[i]

    def _swap_rows(self, k: int, x: int) -> None:
        """Exchange b_{k-1} and b_k with their lambda entries below k-1;
        the new lambda_{k,k-1} is x."""
        rows, lam = self.rows, self.lam
        rows[k - 1], rows[k] = rows[k], rows[k - 1]
        old_k1 = lam[k - 1]
        lam[k - 1] = lam[k][:k - 1]
        lam[k] = old_k1 + [x]

    def _swap(self, k: int) -> None:
        """Swap slots k-1 and k, b*_{k-1} != 0 (Cohen, Alg. 2.6.7, SWAPI)."""
        d, lam = self.d, self.lam
        x = lam[k][k - 1]
        self._swap_rows(k, x)
        dk, dk1 = d[k], d[k + 1]
        b = (d[k - 1] * dk1 + x * x) // dk
        for i in range(k + 1, len(lam)):
            li = lam[i]
            t = li[k]
            li[k] = (dk1 * li[k - 1] - x * t) // dk
            li[k - 1] = (b * t + x * li[k]) // dk1
        d[k] = b
