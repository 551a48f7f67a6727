"""Small NumPy neural-network and evaluation stack.

The paper's classifier is "a simple MLP"; this subpackage implements it
directly on NumPy (dense layers, ReLU, sigmoid/softmax, Adam) plus the
evaluation metrics the experiments report (AUC, micro/macro F1, NMI).
The link-prediction harness's two-layer GCN and the spectral
(Laplacian) embeddings for graphs and hypergraphs need SciPy, so they
are not re-exported here: import them from :mod:`repro.ml.gcn` and
:mod:`repro.ml.spectral`.
"""

from repro.ml.metrics import (
    accuracy_score,
    f1_scores,
    normalized_mutual_information,
    roc_auc_score,
)
from repro.ml.mlp import MLPClassifier

__all__ = [
    "MLPClassifier",
    "roc_auc_score",
    "f1_scores",
    "accuracy_score",
    "normalized_mutual_information",
]
