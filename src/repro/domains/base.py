"""Abstract domain interface.

A *domain* is the ground truth the simulated crowd answers about: a set
of objects, a universe of numerical attributes with true values per
object, a per-attribute *difficulty* (the variance of a single worker's
answer noise, i.e. the true ``S_c``), a dismantling taxonomy (which
related attributes workers suggest, and how often — the true generator
behind the paper's Table 4), and optional gold-standard attribute sets
for the coverage experiment.

Boolean attributes are modelled, as in the paper, as numerical
attributes with values in ``[0, 1]``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import UnknownAttributeError, UnknownObjectError

#: Sentinel key inside a dismantle distribution standing for "a worker
#: suggests something unrelated"; workers resolve it by sampling a
#: uniformly random attribute outside the related set.
IRRELEVANT = "__irrelevant__"


class Domain(ABC):
    """Ground truth world against which crowd answers are generated."""

    #: Human-readable domain name (``"pictures"``, ``"recipes"``, ...).
    name: str = "domain"

    # ------------------------------------------------------------------
    # Universe
    # ------------------------------------------------------------------

    @abstractmethod
    def attributes(self) -> tuple[str, ...]:
        """All attribute names in the domain's universe."""

    @abstractmethod
    def n_objects(self) -> int:
        """Number of objects in the domain."""

    def objects(self) -> range:
        """Object identifiers (dense integers ``0..n_objects()-1``)."""
        return range(self.n_objects())

    @abstractmethod
    def is_binary(self, attribute: str) -> bool:
        """True if ``attribute`` is boolean-like (values in ``[0, 1]``)."""

    def check_attribute(self, attribute: str) -> None:
        """Raise :class:`UnknownAttributeError` for names outside the universe."""
        if attribute not in self.attributes():
            raise UnknownAttributeError(attribute)

    def check_object(self, object_id: int) -> None:
        """Raise :class:`UnknownObjectError` for ids outside the object set."""
        if not 0 <= object_id < self.n_objects():
            raise UnknownObjectError(object_id)

    # ------------------------------------------------------------------
    # Ground truth values and statistics
    # ------------------------------------------------------------------

    @abstractmethod
    def true_value(self, object_id: int, attribute: str) -> float:
        """The true value ``o.a``."""

    def true_values(self, attribute: str) -> np.ndarray:
        """Vector of true values of ``attribute`` over all objects."""
        self.check_attribute(attribute)
        return np.array(
            [self.true_value(o, attribute) for o in self.objects()], dtype=float
        )

    @abstractmethod
    def difficulty(self, attribute: str) -> float:
        """Variance of one worker's answer noise for ``attribute``.

        This is the ground-truth ``S_c[a] = E_O[Var(o.a^(1))]``.
        """

    def true_variance(self, attribute: str) -> float:
        """Population variance of the attribute's true values."""
        return float(np.var(self.true_values(attribute)))

    def true_sigma(self, attribute: str) -> float:
        """Population standard deviation of the attribute's true values."""
        return float(np.sqrt(self.true_variance(attribute)))

    def answer_sigma(self, attribute: str) -> float:
        """Standard deviation of a single worker answer.

        Combines true-value spread with worker noise:
        ``sqrt(Var(o.a) + S_c[a])``.
        """
        return float(np.sqrt(self.true_variance(attribute) + self.difficulty(attribute)))

    def relevance(self, attribute_a: str, attribute_b: str) -> float:
        """Absolute correlation between the true values of two attributes.

        Used as the ground truth behind verification questions: the crowd
        tends to confirm a candidate iff the attributes really co-vary.
        """
        if attribute_a == attribute_b:
            return 1.0
        va = self.true_values(attribute_a)
        vb = self.true_values(attribute_b)
        sa = np.std(va)
        sb = np.std(vb)
        if sa == 0 or sb == 0:
            return 0.0
        return float(abs(np.corrcoef(va, vb)[0, 1]))

    #: Minimum true |correlation| for a candidate attribute to count as
    #: genuinely relevant in verification ground truth.
    relevance_threshold: float = 0.2

    def is_relevant(self, attribute: str, candidate: str) -> bool:
        """Ground truth of a verification question.

        The paper's verification question asks whether knowing the
        candidate *helps* estimating the attribute.  Helpfulness is
        wider than marginal correlation — height helps determine BMI by
        definition although the two barely correlate — so a candidate
        counts as relevant if it co-varies with the attribute *or* the
        two are semantically related in the domain's dismantling
        taxonomy (the structure the crowd's suggestions come from).
        """
        if self.relevance(attribute, candidate) >= self.relevance_threshold:
            return True
        distribution = self.dismantle_distribution(attribute)
        if distribution.get(candidate, 0.0) > 0.0:
            return True
        reverse = self.dismantle_distribution(candidate)
        return reverse.get(attribute, 0.0) > 0.0

    # ------------------------------------------------------------------
    # Dismantling taxonomy and surface forms
    # ------------------------------------------------------------------

    @abstractmethod
    def dismantle_distribution(self, attribute: str) -> dict[str, float]:
        """Distribution over answers to a dismantling question.

        Keys are attribute names (plus optionally :data:`IRRELEVANT`);
        values are probabilities summing to 1.  This is the generator
        whose empirical face is the paper's Table 4.
        """

    def irrelevant_candidates(self, attribute: str) -> tuple[str, ...]:
        """Attributes an "irrelevant" dismantling answer on ``attribute`` may name.

        An irrelevant answer models a worker suggesting something
        unhelpful, so the candidates are the attributes (in
        :meth:`attributes` order) that are neither in the attribute's
        dismantle distribution nor relevant to it — those would be
        legitimate answers.  When no attribute qualifies, every other
        attribute is a candidate.  The ground truth is fixed per
        domain instance, so the list is computed once per attribute.
        """
        try:
            memo = self._irrelevant_memo
        except AttributeError:
            memo = self._irrelevant_memo = {}
        candidates = memo.get(attribute)
        if candidates is None:
            related = set(self.dismantle_distribution(attribute))
            others = [name for name in self.attributes() if name != attribute]
            candidates = tuple(
                name
                for name in others
                if name not in related and not self.is_relevant(attribute, name)
            ) or tuple(others)
            memo[attribute] = candidates
        return candidates

    def synonyms(self, attribute: str) -> tuple[str, ...]:
        """Alternative surface forms workers may use for ``attribute``.

        The paper assumes a thesaurus/NLP step merges e.g. *large*,
        *big*, *grand* into one representative; the robustness
        experiment of Section 5.4 disables that merging.  The default is
        no synonyms.
        """
        self.check_attribute(attribute)
        return ()

    def gold_standard(self, target: str) -> frozenset[str]:
        """Expert gold-standard related attributes for ``target``.

        Used by the Section 5.3.1 coverage experiment.  Domains without
        curated sets return the empty set.
        """
        self.check_attribute(target)
        return frozenset()

    # ------------------------------------------------------------------
    # Example questions
    # ------------------------------------------------------------------

    def sample_object(self, rng: np.random.Generator) -> int:
        """Draw a uniformly random object, as a worker providing an example."""
        return int(rng.integers(0, self.n_objects()))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def answer_range(self, attribute: str) -> tuple[float, float]:
        """Plausible answer interval for ``attribute``.

        Binary attributes live in ``[0, 1]``; numeric ones get the true
        value range padded by two worker noise standard deviations.
        Spam workers sample uniformly from this interval.
        """
        if self.is_binary(attribute):
            return (0.0, 1.0)
        values = self.true_values(attribute)
        pad = 2.0 * float(np.sqrt(self.difficulty(attribute)))
        return (float(values.min()) - pad, float(values.max()) + pad)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"objects={self.n_objects()}, attributes={len(self.attributes())})"
        )
