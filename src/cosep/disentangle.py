"""Sparsity measurement, category-to-channel assignment, and the
classification accuracy that validates an assignment.

The table and the accuracy work on arrays: activated visual vectors
v [N, K] from one ``avnets.infer_images`` pass and the N category ids,
so a caller forwards a split once and feeds both.

The assignment step turns the per-category mean activation table into an
injective category -> channel map by maximizing total selected activation
mass (equivalently minimizing cost = row-max minus entry), solved exactly
with a shortest-augmenting-path Hungarian method in O(C^2 K).  Ties are
resolved deterministically toward lower channel ids, so a fully tied
table yields the lexicographically smallest map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .checkpoint import write_atomic


def sparsity(x) -> float:
    """Population sparseness of a non-negative activation vector:
    0 for uniform, 1 for one-hot."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    k = x.size
    if k < 2:
        raise ValueError("sparsity needs a vector of length >= 2")
    if np.any(x < 0):
        raise ValueError("sparsity is defined for non-negative activations")
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("sparsity of the zero vector is undefined")
    cos = x.sum() / (norm * np.sqrt(k))
    return float((1.0 - cos * cos) / (1.0 - 1.0 / k))


@dataclass
class ActivationTable:
    """Per-category mean activations over a split, rows normalized to
    sum to one."""

    values: np.ndarray          # [C, K], float64
    categories: list            # category names, row order

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("activation table must be 2-d [categories, channels]")
        if self.values.shape[0] > self.values.shape[1]:
            raise ValueError("more categories than channels; cannot assign injectively")
        if np.any(self.values < 0):
            raise ValueError("activation table entries must be non-negative")
        sums = self.values.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise ValueError("activation table rows must sum to 1 (row-sum-1 normalization)")

    @property
    def n_categories(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass
class Assignment:
    """Injective category -> channel map with its selected profits."""

    category_to_channel: list
    per_category_profit: list
    total_profit: float
    categories: list

    def channel_for(self, category: int) -> int:
        return self.category_to_channel[category]

    def to_json(self) -> dict:
        return {
            "assignment": {name: int(ch) for name, ch in zip(self.categories, self.category_to_channel)},
            "category_to_channel": [int(c) for c in self.category_to_channel],
            "per_category_profit": [float(p) for p in self.per_category_profit],
            "total_profit": self.total_profit,
        }

    def save(self, path, extra: dict | None = None) -> None:
        doc = self.to_json()
        if extra:
            doc.update(extra)
        write_atomic(path, json.dumps(doc, sort_keys=True, indent=1))

    @staticmethod
    def load(path) -> tuple["Assignment", dict]:
        with open(path) as fh:
            doc = json.load(fh)
        # the file sorts the names; the injective map puts them back in category order
        name_of = {ch: name for name, ch in doc["assignment"].items()}
        asg = Assignment(doc["category_to_channel"], doc["per_category_profit"], doc["total_profit"],
                         [name_of[ch] for ch in doc["category_to_channel"]])
        return asg, doc


def _lap_min(cost: np.ndarray) -> np.ndarray:
    """Shortest-augmenting-path solver; returns col index per row.

    ``cost`` is C x K with C <= K.  Column K acts as the virtual start
    column, row index C as the virtual free marker.
    """
    C, K = cost.shape
    u = np.zeros(C + 1)
    v = np.zeros(K + 1)
    matched_row = np.full(K + 1, C, dtype=np.int64)
    way = np.zeros(K + 1, dtype=np.int64)
    for i in range(C):
        matched_row[K] = i
        j0 = K
        minv = np.full(K, np.inf)
        used = np.zeros(K + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = matched_row[j0]
            free = np.nonzero(~used[:K])[0]
            cur = cost[i0, free] - u[i0] - v[free]
            better = cur < minv[free]
            upd = free[better]
            minv[upd] = cur[better]
            way[upd] = j0
            rel = int(np.argmin(minv[free]))  # first minimum: lowest channel wins ties
            delta = minv[free][rel]
            j1 = int(free[rel])
            u[matched_row[used]] += delta
            v[np.nonzero(used[:K])[0]] -= delta
            minv[~used[:K]] -= delta
            j0 = j1
            if matched_row[j0] == C:
                break
        while j0 != K:
            j_prev = int(way[j0])
            matched_row[j0] = matched_row[j_prev]
            j0 = j_prev
    row_to_col = np.full(C, -1, dtype=np.int64)
    for j in range(K):
        if matched_row[j] != C:
            row_to_col[matched_row[j]] = j
    return row_to_col


def assign(table: ActivationTable) -> Assignment:
    """Profit-maximizing injective category -> channel assignment."""
    profit = table.values
    if np.any(np.isnan(profit)):
        raise ValueError("activation table contains NaN entries")
    cost = profit.max(axis=1, keepdims=True) - profit
    row_to_col = _lap_min(cost)
    per_cat = [float(profit[c, row_to_col[c]]) for c in range(table.n_categories)]
    return Assignment(list(map(int, row_to_col)), per_cat, float(sum(per_cat)),
                      list(table.categories))


# ---------------------------------------------------------------------
# operations on activated vectors
# ---------------------------------------------------------------------

def build_table(v, categories, names) -> ActivationTable:
    """Mean activated visual vector per category, rows normalized.

    ``v`` is [N, K], ``categories`` the N category ids and ``names`` the
    category names, one table row each."""
    v = np.asarray(v, dtype=np.float64)
    if len(v) == 0:
        raise ValueError("no clips to build the activation table from")
    sums = np.zeros((len(names), v.shape[1]))
    for cat, row in zip(categories, v):
        sums[cat] += row
    counts = np.bincount(categories, minlength=len(names))
    if np.any(counts == 0):
        missing = [names[i] for i in np.nonzero(counts == 0)[0]]
        raise ValueError(f"no clips for categories {missing}")
    means = sums / counts[:, None]
    rows = means / means.sum(axis=1, keepdims=True)
    return ActivationTable(rows, list(names))


def classification_accuracy(v, categories, assignment: Assignment) -> float:
    """Fraction of clips whose strongest channel is the one assigned to
    their category (argmax ties go to the lowest channel id)."""
    if len(v) == 0:
        raise ValueError("no clips to classify")
    if max(categories) >= len(assignment.category_to_channel):
        raise ValueError("assignment does not cover all categories present")
    hits = sum(int(np.argmax(row)) == assignment.channel_for(cat)
               for row, cat in zip(v, categories))
    return hits / len(v)
