"""Reconstruction-quality metrics.

Jaccard and multi-Jaccard similarity (the paper's headline accuracy
numbers, Sect. II-B).  The 12 structural properties with their
preservation errors (Table IV) need SciPy, so they are not re-exported
here: import them from :mod:`repro.metrics.structure`.
"""

from repro.metrics.jaccard import jaccard_similarity, multi_jaccard_similarity

__all__ = [
    "jaccard_similarity",
    "multi_jaccard_similarity",
]
