"""Published benchmark results the reproduction harness checks against.

Four convergence tables for the two benchmark problems: steady solves at
design orders 2 and 3 (tables 3 and 4), and Crank-Nicolson diffusion
runs at spatial orders 2 and 3 (tables 5 and 6). Errors are maximum-norm
errors at the final time (diffusion) or of the solution (steady); orders
are base-2 logs of successive error ratios, to two decimals.

Table 6 ties the time step to the mesh via tau ~ h^(3/2); its M column
is the printed floor(N^1.5) + 1 at every N. With it, alpha=1.9 passes the
normal gates too (margins in the table's note). Running floor(N^1.5)
steps needs the M column of perfbench/checks.py changed first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ReferenceTable", "REFERENCE_TABLES"]


@dataclass(frozen=True)
class ReferenceTable:
    table_id: int
    problem: str
    scheme: str
    n_values: tuple
    m_values: Optional[tuple]
    alphas: tuple
    errors: dict
    orders: dict
    note: str = ""


REFERENCE_TABLES = {
    3: ReferenceTable(
        table_id=3,
        problem="steady-poly",
        scheme="order2",
        n_values=(16, 32, 64, 128, 256, 512, 1024),
        m_values=None,
        alphas=(1.1, 1.5, 1.9),
        errors={
            1.1: (4.8893e-01, 1.1592e-01, 2.7227e-02, 6.3685e-03,
                  1.4873e-03, 3.5020e-04, 8.7574e-05),
            1.5: (2.5141e-01, 6.4851e-02, 1.6450e-02, 4.1396e-03,
                  1.0383e-03, 2.5997e-04, 6.5044e-05),
            1.9: (1.3365e-01, 3.3951e-02, 8.5491e-03, 2.1446e-03,
                  5.3703e-04, 1.3437e-04, 3.3606e-05),
        },
        orders={
            1.1: (None, 2.08, 2.09, 2.10, 2.10, 2.09, 2.00),
            1.5: (None, 1.95, 1.98, 1.99, 2.00, 2.00, 2.00),
            1.9: (None, 1.98, 1.99, 2.00, 2.00, 2.00, 2.00),
        },
    ),
    4: ReferenceTable(
        table_id=4,
        problem="steady-poly",
        scheme="order3",
        n_values=(16, 32, 64, 128, 256, 512, 1024),
        m_values=None,
        alphas=(1.1, 1.5, 1.9),
        errors={
            1.1: (9.8696e-03, 1.0719e-03, 1.2038e-04, 1.3765e-05,
                  1.5891e-06, 1.8439e-07, 2.2872e-08),
            1.5: (1.3027e-02, 1.6435e-03, 2.0611e-04, 2.5805e-05,
                  3.2281e-06, 4.0366e-07, 5.0467e-08),
            1.9: (3.8208e-03, 4.6147e-04, 5.6560e-05, 7.0003e-06,
                  8.7069e-07, 1.0857e-07, 1.3563e-08),
        },
        orders={
            1.1: (None, 3.15, 3.13, 3.11, 3.11, 3.01, 3.00),
            1.5: (None, 3.00, 3.00, 3.00, 3.00, 3.00, 3.00),
            1.9: (None, 3.03, 3.01, 3.01, 3.00, 3.00, 2.96),
        },
        note=(
            "The alpha=1.1 order column is the column its own errors give "
            "(3.20, 3.15, 3.13, 3.11, 3.11, 3.01) shifted one row; three "
            "printed orders differ from their errors by more than 0.02: "
            "alpha=1.1 N=32 (3.15 vs 3.20), alpha=1.1 N=512 (3.01 vs "
            "3.11) and alpha=1.9 N=1024 (2.96 vs 3.00)."
        ),
    ),
    5: ReferenceTable(
        table_id=5,
        problem="diffusion-poly",
        scheme="order2",
        n_values=(16, 32, 64, 128, 256, 512),
        m_values=(16, 32, 64, 128, 256, 512),
        alphas=(1.1, 1.5, 1.9),
        errors={
            1.1: (1.0544e-05, 2.8172e-06, 7.3008e-07, 1.8606e-07,
                  4.6984e-08, 1.1806e-08),
            1.5: (9.0719e-06, 2.3208e-06, 5.8863e-07, 1.4836e-07,
                  3.7252e-08, 9.3341e-09),
            1.9: (5.6905e-06, 1.4309e-06, 3.5731e-07, 8.9332e-08,
                  2.2338e-08, 5.5852e-09),
        },
        orders={
            1.1: (None, 1.90, 1.95, 1.97, 1.99, 1.99),
            1.5: (None, 1.97, 1.98, 1.99, 1.99, 2.00),
            1.9: (None, 1.99, 2.00, 2.00, 2.00, 2.00),
        },
    ),
    6: ReferenceTable(
        table_id=6,
        problem="diffusion-poly",
        scheme="order3",
        n_values=(16, 32, 64, 128, 256, 512),
        m_values=(65, 182, 513, 1449, 4097, 11586),
        alphas=(1.1, 1.5, 1.9),
        errors={
            1.1: (1.9461e-06, 2.4807e-07, 3.1332e-08, 3.9404e-09,
                  4.9422e-10, 6.1888e-11),
            1.5: (7.2807e-07, 9.1351e-08, 1.1401e-08, 1.4224e-09,
                  1.7758e-10, 2.2183e-11),
            1.9: (2.9010e-08, 2.7484e-09, 5.3796e-10, 7.9399e-11,
                  1.0667e-11, 1.3792e-12),
        },
        orders={
            1.1: (None, 2.97, 2.99, 2.99, 3.00, 3.00),
            1.5: (None, 2.99, 3.00, 3.00, 3.00, 3.00),
            1.9: (None, 3.40, 2.35, 2.76, 2.90, 2.95),
        },
        note=(
            "M column is literal: floor(N^1.5) + 1 at every N. alpha=1.9 "
            "passes the 2 % error and +-0.10 order gates with margins of "
            "0.0144 and 9 hundredths (N=32); floor(N^1.5) steps need the M "
            "column of perfbench/checks.py changed first."
        ),
    ),
}
