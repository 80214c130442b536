"""The paper's figures and quantified claims as rows of one table.

``CLAIMS`` (:mod:`repro.claims.rows`) holds one :class:`Claim` per row of
DESIGN.md section 4: what the paper says, how it is measured, and the
shape the measurement must have.  ``tests/test_claims.py`` asserts every
row in tier-1; ``python -m repro claims [--id ID ...] [--backend B]``
prints the measured tables.  Imported by those two only -- never by
``repro`` itself, ``repro.audit`` or the repo benchmark.
"""

from repro.claims.rows import CLAIMS, claims_table
from repro.claims.table import Claim, Table

__all__ = ["CLAIMS", "Claim", "Table", "claims_table"]
