"""Finite bigraded vector spaces with labeled bases."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class BasisElement:
    label: str
    deg: int
    weight: int | None = None


class GradedSpace:
    """A finite graded (optionally weight-graded) space given by its basis.

    Labels are unique and opaque; the element order fixes the canonical
    storage order for antisymmetric maps.  Either every element carries a
    weight or none does.
    """

    def __init__(self, elements: list[BasisElement] | tuple[BasisElement, ...]):
        elements = tuple(elements)
        labels = [e.label for e in elements]
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate basis labels: {dupes}")
        weighted = [e.weight is not None for e in elements]
        if any(weighted) and not all(weighted):
            raise ValueError("either all basis elements carry weights or none")
        self.elements = elements
        self._by_label = {e.label: e for e in elements}
        # label -> position in the basis: a sort key, read on every hot path
        self.order_index = {e.label: i for i, e in enumerate(elements)}.__getitem__

    def __len__(self) -> int:
        return len(self.elements)

    # what the stored-key walk (``multimap.morphism_terms``) reads per label,
    # built on first use

    @cached_property
    def parities(self) -> dict[str, int]:
        """label -> degree parity."""
        return {e.label: e.deg & 1 for e in self.elements}

    @cached_property
    def codes(self) -> dict[str, int]:
        """label -> 2 * basis position + degree parity: codes sort in
        basis order and carry the parity."""
        return {e.label: 2 * i + (e.deg & 1) for i, e in enumerate(self.elements)}

    @cached_property
    def coded_labels(self) -> dict[int, str]:
        """code -> label, the inverse of ``codes``."""
        return {c: lab for lab, c in self.codes.items()}

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def __iter__(self):
        return iter(self.elements)

    @property
    def weighted(self) -> bool:
        return bool(self.elements) and self.elements[0].weight is not None

    def element(self, label: str) -> BasisElement:
        try:
            return self._by_label[label]
        except KeyError:
            raise KeyError(f"unknown basis label {label!r}") from None

    def deg(self, label: str) -> int:
        return self.element(label).deg

    def weight(self, label: str) -> int | None:
        return self.element(label).weight

    def labels(self) -> list[str]:
        return [e.label for e in self.elements]

    def degrees(self) -> list[int]:
        return sorted({e.deg for e in self.elements})

    def dim(self, deg: int) -> int:
        return sum(1 for e in self.elements if e.deg == deg)

    def dims(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.elements:
            out[e.deg] = out.get(e.deg, 0) + 1
        return out

    def basis_of_degree(self, deg: int) -> list[BasisElement]:
        return [e for e in self.elements if e.deg == deg]

    def top_degree(self) -> int:
        if not self.elements:
            raise ValueError("empty space has no top degree")
        return max(e.deg for e in self.elements)

    def restricted_to(self, labels: set[str]) -> "GradedSpace":
        return GradedSpace([e for e in self.elements if e.label in labels])


def combine_spaces(first: GradedSpace, second: GradedSpace) -> GradedSpace:
    """Direct sum, first's basis then second's; labels must not clash."""
    overlap = set(first.labels()) & set(second.labels())
    if overlap:
        raise ValueError(f"label clash in direct sum: {sorted(overlap)}")
    return GradedSpace(first.elements + second.elements)


def prefix_space(space: GradedSpace, prefix: str) -> GradedSpace:
    return GradedSpace(
        [BasisElement(prefix + e.label, e.deg, e.weight) for e in space.elements]
    )
