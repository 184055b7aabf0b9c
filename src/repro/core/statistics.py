"""Collecting and estimating the statistics trio ``(S_o, S_a, S_c)``.

Section 3.2.2 of the paper: the planner collects ``N_1`` example
objects with true target values (example questions), then, for each
discovered attribute, asks ``k`` value questions per example (``k = 2``
in the paper) and estimates

* ``S_c[a]``    — mean within-object answer variance (difficulty),
* ``S_o[t,a]``  — |covariance| of the answer mean with the true target,
* ``S_a[i,j]``  — |covariance| between answer means of two attributes,
  with the diagonal de-biased by the averaging noise ``S_c/k`` so it
  estimates the covariance of the *de-noised* answers (the quantity the
  error formula of expression 2 needs).

In the multi-target case (Section 4) each target has its own example
pool ``E_{B,a_t}`` and attributes are only measured on the pools they
are *paired* with, so some ``S_o`` entries are missing; they are filled
by an estimator (:mod:`repro.core.sograph` or the naive baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, MalformedAnswerError

#: Floor applied to de-biased variances so matrices stay invertible.
VARIANCE_FLOOR = 1e-9


def _require_finite(target: str, attribute: str, answers: list[float]) -> None:
    """Reject non-finite answers before they enter the statistics.

    A single NaN here would silently propagate through every downstream
    covariance (``S_o``, ``S_a``) and poison the budget allocation; the
    platform's resilience layer is supposed to have filtered malformed
    answers already, so reaching this guard is a bug or a bypassed
    platform — fail loudly either way.
    """
    for answer in answers:
        if not np.isfinite(answer):
            raise MalformedAnswerError(
                "value",
                f"non-finite answer {answer!r} for {attribute!r} "
                f"in pool {target!r}",
            )


def _soft_threshold(value: float, threshold: float) -> float:
    """Shrink ``|value|`` toward zero by ``threshold``, keeping the sign."""
    magnitude = max(abs(value) - threshold, 0.0)
    return float(np.sign(value)) * magnitude


def variance_estimate(answers: list[float]) -> float:
    """Unbiased within-object variance from ``k`` answers (``VarEst_k``).

    Returns 0 for batches of fewer than two answers (no information).
    Implemented in plain Python: batches are tiny (k ~ 2) and this is
    the innermost loop of statistics collection.
    """
    n = len(answers)
    if n < 2:
        return 0.0
    mean = sum(answers) / n
    return sum((a - mean) ** 2 for a in answers) / (n - 1)


@dataclass
class ExamplePool:
    """One target's example set with per-attribute answer batches.

    The pool stores, for each example object, the true target value and
    (per measured attribute) the raw list of crowd answers collected so
    far.  Statistics are computed over the examples that have answers.
    """

    target: str
    object_ids: list[int] = field(default_factory=list)
    target_values: list[float] = field(default_factory=list)
    _answers: dict[str, list[list[float]]] = field(default_factory=dict)
    #: Mutation counters the statistics store builds its memo signatures
    #: from: one for the target values, one per attribute's batches.
    target_version: int = 0
    _batch_versions: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.object_ids)

    def add_example(self, object_id: int, target_value: float) -> None:
        """Append one example object with its true target value."""
        _require_finite(self.target, "<target value>", [float(target_value)])
        self.object_ids.append(object_id)
        self.target_values.append(float(target_value))
        self.target_version += 1

    def n_measured(self, attribute: str) -> int:
        """Number of examples with answers for ``attribute``."""
        return len(self._answers.get(attribute, []))

    def record_answers(self, attribute: str, batches: list[list[float]]) -> None:
        """Append answer batches for consecutive examples of ``attribute``.

        Batches extend the measured prefix: if 10 examples already have
        answers, the first new batch belongs to example 10.
        """
        for batch in batches:
            _require_finite(self.target, attribute, batch)
        existing = self._answers.setdefault(attribute, [])
        if len(existing) + len(batches) > len(self.object_ids):
            raise ConfigurationError(
                f"more answer batches than examples for {attribute!r} "
                f"in pool {self.target!r}"
            )
        existing.extend([list(batch) for batch in batches])
        self._batch_versions[attribute] = self.batch_version(attribute) + 1

    def append_to_batch(self, attribute: str, example_index: int, answers: list[float]) -> None:
        """Add extra answers to one example's existing batch.

        Used when the training phase tops up the ``k`` statistics
        answers to the full ``b(a)`` (the paper's answer reuse).
        """
        _require_finite(self.target, attribute, [float(a) for a in answers])
        batches = self._answers.get(attribute)
        if batches is None or example_index >= len(batches):
            raise ConfigurationError(
                f"no existing batch for {attribute!r} at example {example_index}"
            )
        batches[example_index].extend(float(a) for a in answers)
        self._batch_versions[attribute] = self.batch_version(attribute) + 1

    def batch_version(self, attribute: str) -> int:
        """Mutation counter of ``attribute``'s answer batches."""
        return self._batch_versions.get(attribute, 0)

    def batch(self, attribute: str, example_index: int) -> list[float]:
        """The raw answers of one example for one attribute."""
        return list(self._answers[attribute][example_index])

    def answer_means(self, attribute: str, limit: int | None = None) -> np.ndarray:
        """Per-example answer means for ``attribute`` (measured prefix).

        Empty batches (e.g. a fully spam-rejected answer set) are
        skipped, so the result is NOT index-aligned with
        :meth:`target_array`; covariance computations must use
        :meth:`aligned_answer_means` instead.
        """
        batches = self._answers.get(attribute, [])
        if limit is not None:
            batches = batches[:limit]
        return np.array([sum(batch) / len(batch) for batch in batches if batch])

    def aligned_answer_means(
        self, attribute: str, limit: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(example_indices, answer_means)`` for non-empty batches.

        The indices say which example each mean belongs to, which is
        what keeps ``S_o``/``S_a`` covariances aligned when a batch
        came back empty: pairing the means with a plain prefix of the
        target values (or of another attribute's means) would shift
        every example after the hole by one.
        """
        batches = self._answers.get(attribute, [])
        if limit is not None:
            batches = batches[:limit]
        indices = [index for index, batch in enumerate(batches) if batch]
        means = [
            sum(batches[index]) / len(batches[index]) for index in indices
        ]
        return np.asarray(indices, dtype=int), np.asarray(means, dtype=float)

    def n_answered(self, attribute: str, limit: int | None = None) -> int:
        """Number of examples with at least one answer for ``attribute``."""
        batches = self._answers.get(attribute, [])
        if limit is not None:
            batches = batches[:limit]
        return sum(1 for batch in batches if batch)

    def within_variances(self, attribute: str, limit: int | None = None) -> np.ndarray:
        """Per-example ``VarEst_k`` values for ``attribute``.

        Empty batches are skipped: they carry no information, and a
        0.0 placeholder would drag the pooled ``S_c`` estimate down.
        """
        batches = self._answers.get(attribute, [])
        if limit is not None:
            batches = batches[:limit]
        return np.array([variance_estimate(batch) for batch in batches if batch])

    def target_array(self, limit: int | None = None) -> np.ndarray:
        """True target values (optionally the first ``limit`` examples)."""
        values = self.target_values if limit is None else self.target_values[:limit]
        return np.asarray(values, dtype=float)

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the pool's contents."""
        return {
            "target": self.target,
            "object_ids": list(self.object_ids),
            "target_values": list(self.target_values),
            "answers": {
                attribute: [list(batch) for batch in batches]
                for attribute, batches in self._answers.items()
            },
        }

    @classmethod
    def from_state(cls, payload: dict) -> "ExamplePool":
        """Rebuild a pool from :meth:`state_dict` output."""
        pool = cls(target=str(payload["target"]))
        pool.object_ids = [int(oid) for oid in payload["object_ids"]]
        pool.target_values = [float(v) for v in payload["target_values"]]
        pool._answers = {
            str(attribute): [[float(a) for a in batch] for batch in batches]
            for attribute, batches in payload["answers"].items()
        }
        return pool


class StatisticsStore:
    """Estimates of ``(S_o, S_a, S_c)`` over the discovered attributes.

    Parameters
    ----------
    targets:
        Query target attributes, one example pool each.
    k:
        Answers per example used for statistics (paper default: 2).
    """

    def __init__(self, targets: tuple[str, ...], k: int = 2) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be at least 1, got {k}")
        self.targets = tuple(targets)
        self.k = k
        self.pools: dict[str, ExamplePool] = {
            target: ExamplePool(target) for target in targets
        }
        #: Attribute measurement order (Table 1's column order).
        self.attributes: list[str] = []
        #: Which pools each attribute has been measured on.
        self.pairings: dict[str, frozenset[str]] = {}
        # Memoized derived statistics: key -> (signature, value).
        self._cache: dict[tuple, tuple[tuple, object]] = {}

    def _memo(self, key: tuple, compute, deps: tuple[str, ...]):
        """``compute()`` cached under ``key`` while its inputs are unchanged.

        Every statistic is a function of the pools' target values, of
        the answer batches of the attributes in ``deps`` and of those
        attributes' pairings.  The entry's signature snapshots exactly
        those inputs, so an accepted attribute recomputes only the
        entries that involve it.  Pools restored from a checkpoint
        restart their counters, so :meth:`restore_state` drops the memo.
        """
        pools = self.pools.values()
        inputs: list = [pool.target_version for pool in pools]
        for attribute in deps:
            inputs.append(self.pairings.get(attribute))
            inputs.extend(pool.batch_version(attribute) for pool in pools)
        signature = tuple(inputs)
        cached = self._cache.get(key)
        if cached is not None and cached[0] == signature:
            return cached[1]
        value = compute()
        self._cache[key] = (signature, value)
        return value

    def _paired_pools(self, *attributes: str) -> list[ExamplePool]:
        """Pools every one of ``attributes`` is paired with.

        Visited in target order, never in set order, so pooled sums do
        not depend on the order in which a pairing was built up.
        """
        return [
            self.pools[target]
            for target in self.targets
            if all(target in self.pairings.get(a, ()) for a in attributes)
        ]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the full statistics state."""
        return {
            "targets": list(self.targets),
            "k": self.k,
            "attributes": list(self.attributes),
            "pairings": {
                attribute: sorted(targets)
                for attribute, targets in self.pairings.items()
            },
            "pools": {
                target: pool.state_dict() for target, pool in self.pools.items()
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Restore :meth:`state_dict` in place (cache invalidated)."""
        if tuple(payload["targets"]) != self.targets or int(payload["k"]) != self.k:
            raise ConfigurationError(
                "checkpointed statistics were collected for different "
                "targets or k"
            )
        self.attributes = [str(a) for a in payload["attributes"]]
        self.pairings = {
            str(attribute): frozenset(str(t) for t in targets)
            for attribute, targets in payload["pairings"].items()
        }
        self.pools = {
            str(target): ExamplePool.from_state(state)
            for target, state in payload["pools"].items()
        }
        self._cache.clear()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def register_attribute(self, attribute: str, paired_targets: set[str]) -> None:
        """Declare a new attribute and the pools it is measured on."""
        unknown = set(paired_targets) - set(self.targets)
        if unknown:
            raise ConfigurationError(f"pairing with unknown targets: {unknown}")
        if attribute in self.pairings:
            self.pairings[attribute] |= frozenset(paired_targets)
            return
        self.attributes.append(attribute)
        self.pairings[attribute] = frozenset(paired_targets)

    def drop_attribute(self, attribute: str) -> None:
        """Remove an attribute from the discovered set.

        Used by the planner's graceful-degradation path when an
        accepted attribute's sample collection failed entirely — its
        absence from ``attributes`` keeps the budget allocator from
        spending online questions on an attribute with no statistics.
        Pools keep any raw answers already recorded (harmless; they are
        only read through the attribute list).  Query targets cannot be
        dropped.
        """
        if attribute in self.targets:
            raise ConfigurationError(
                f"cannot drop query target {attribute!r} from the statistics"
            )
        if attribute in self.pairings:
            self.attributes.remove(attribute)
            del self.pairings[attribute]

    def pool(self, target: str) -> ExamplePool:
        """The example pool of one target."""
        if target not in self.pools:
            raise ConfigurationError(f"no example pool for target {target!r}")
        return self.pools[target]

    # ------------------------------------------------------------------
    # Scalar statistics
    # ------------------------------------------------------------------

    def s_c(self, attribute: str) -> float:
        """Estimated worker-answer variance (difficulty) of ``attribute``.

        Pooled mean of ``VarEst_k`` over every example (in any pool)
        with answers for the attribute.
        """
        return self._memo(
            ("s_c", attribute), lambda: self._compute_s_c(attribute), (attribute,)
        )

    def _compute_s_c(self, attribute: str) -> float:
        estimates: list[np.ndarray] = []
        for pool in self._paired_pools(attribute):  # measured pools only
            values = pool.within_variances(attribute)
            if values.size:
                estimates.append(values)
        if not estimates:
            return 0.0
        return float(np.mean(np.concatenate(estimates)))

    def answer_variance(self, attribute: str) -> float:
        """Estimated variance of a *single* worker answer.

        ``Var(o.a^(1)) = Var(de-noised answer) + S_c``; the first term
        is the de-biased variance of the ``k``-answer means.
        """
        s_c = self.s_c(attribute)
        return max(self._denoised_variance(attribute) + s_c, VARIANCE_FLOOR)

    def answer_sigma(self, attribute: str) -> float:
        """Standard deviation of a single worker answer."""
        return float(np.sqrt(self.answer_variance(attribute)))

    def _denoised_variance(self, attribute: str) -> float:
        """Variance of the per-object expected answer (S_a diagonal).

        Estimated as the covariance between *distinct* answers for the
        same object: for independent worker noise,
        ``Cov_O(o.a^(1)_first, o.a^(1)_second) = Var(E[o.a^(1) | o])``.
        This is unbiased like ``Var(k-means) - S_c/k`` but avoids
        coupling the estimate to the (noisy) ``S_c`` estimate, which
        substantially stabilizes the budget allocation at small ``N_1``.
        Examples with a single answer fall back to the subtraction form.
        """
        return self._memo(
            ("denoised", attribute),
            lambda: self._compute_denoised_variance(attribute),
            (attribute,),
        )

    def _compute_denoised_variance(self, attribute: str) -> float:
        firsts: list[float] = []
        seconds: list[float] = []
        single_means: list[float] = []
        for pool in self._paired_pools(attribute):
            for index in range(pool.n_measured(attribute)):
                batch = pool.batch(attribute, index)
                if len(batch) >= 2:
                    firsts.append(batch[0])
                    seconds.append(batch[1])
                elif batch:
                    single_means.append(batch[0])
        if len(firsts) >= 2:
            # Symmetrize: average Cov(a1, a2) over both orderings (they
            # are equal in expectation; averaging halves the variance).
            cross = float(
                (
                    np.cov(firsts, seconds, ddof=1)[0, 1]
                    + np.cov(seconds, firsts, ddof=1)[0, 1]
                )
                / 2.0
            )
            return max(cross, VARIANCE_FLOOR)
        if len(single_means) >= 2:
            raw = float(np.var(np.asarray(single_means), ddof=1))
            return max(raw - self.s_c(attribute), VARIANCE_FLOOR)
        return VARIANCE_FLOOR

    def target_variance(self, target: str) -> float:
        """Variance of the true target values seen in its example pool."""

        def compute() -> float:
            values = self.pool(target).target_array()
            if values.size < 2:
                return VARIANCE_FLOOR
            return max(float(np.var(values, ddof=1)), VARIANCE_FLOOR)

        return self._memo(("target_var", target), compute, ())

    def target_sigma(self, target: str) -> float:
        """Standard deviation of the true target values."""
        return float(np.sqrt(self.target_variance(target)))

    # ------------------------------------------------------------------
    # Covariance statistics
    # ------------------------------------------------------------------

    def s_o_measured(self, target: str, attribute: str) -> float | None:
        """Measured ``S_o[t, a]`` or ``None`` if the pair was not collected.

        This is the covariance of the attribute's answer means with the
        true target values, over the target's example pool.  NOTE: the
        paper *writes* ``S_o`` and ``S_a`` with absolute values, but the
        expression-2 error formula is the linear-regression identity,
        which needs the *signed* covariances (taking entrywise absolute
        values destroys positive-semidefiniteness and with it the
        meaning — and monotonicity — of the objective).  We keep signs
        internally and take absolute values only for presentation.
        """
        return self._memo(
            ("s_o", target, attribute),
            lambda: self._compute_s_o_measured(target, attribute),
            (attribute,),
        )

    def _compute_s_o_measured(self, target: str, attribute: str) -> float | None:
        pool = self.pool(target)
        # Align by example index: an empty batch (fully spam-rejected)
        # must drop *its own* example's target value, not shift the
        # pairing of every later example.
        indices, means = pool.aligned_answer_means(attribute)
        if indices.size < 2:
            return None
        target_values = pool.target_array()[indices]
        return float(np.cov(means, target_values, ddof=1)[0, 1])

    def s_a_entry(self, attribute_a: str, attribute_b: str) -> float | None:
        """``S_a`` entry for a pair of attributes, pooled across pools.

        Returns ``None`` when the two attributes share no example pool
        (caller decides the fill value — the paper's optimistic prior
        is 0).  The diagonal is the de-biased de-noised variance.
        """
        if attribute_a == attribute_b:
            return self._denoised_variance(attribute_a)
        pooled = self._s_a_pooled(attribute_a, attribute_b)
        return None if pooled is None else pooled[0]

    def _s_a_pooled(
        self, attribute_a: str, attribute_b: str
    ) -> tuple[float, int] | None:
        """Off-diagonal ``S_a`` entry and the number of examples it covaried."""
        key = ("s_a",) + tuple(sorted((attribute_a, attribute_b)))
        return self._memo(
            key,
            lambda: self._compute_s_a_entry(attribute_a, attribute_b),
            (attribute_a, attribute_b),
        )

    def _compute_s_a_entry(
        self, attribute_a: str, attribute_b: str
    ) -> tuple[float, int] | None:
        covariances: list[float] = []
        weights: list[int] = []
        for pool in self._paired_pools(attribute_a, attribute_b):
            n = min(pool.n_measured(attribute_a), pool.n_measured(attribute_b))
            if n < 2:
                continue
            indices_a, means_a = pool.aligned_answer_means(attribute_a, limit=n)
            indices_b, means_b = pool.aligned_answer_means(attribute_b, limit=n)
            # Covary only the examples both attributes actually have
            # answers for, paired by example index.
            _, keep_a, keep_b = np.intersect1d(
                indices_a, indices_b, return_indices=True
            )
            if keep_a.size < 2:
                continue
            covariances.append(
                float(np.cov(means_a[keep_a], means_b[keep_b], ddof=1)[0, 1])
            )
            weights.append(int(keep_a.size))
        if not covariances:
            return None
        return float(np.average(covariances, weights=weights)), sum(weights)

    #: Soft-threshold factor for covariance estimates, in units of their
    #: standard error.  The paper stores |covariances|; for weakly
    #: related pairs the absolute value of a noisy estimate is biased
    #: upward (E|est| ~ 0.8 SE even at zero true covariance), and the
    #: budget allocator then chases those phantom correlations (a
    #: winner's-curse effect that grows with the attribute count).
    #: Subtracting one standard error before use removes the bias while
    #: barely touching strong covariances.
    SHRINKAGE_KAPPA = 1.0

    def _mean_variance(self, attribute: str) -> float:
        """Variance of one example's ``k``-answer mean."""
        return self._denoised_variance(attribute) + self.s_c(attribute) / self.k

    def _s_o_standard_error(self, target: str, attribute: str) -> float:
        """Approximate standard error of the measured ``S_o[t, a]``."""
        pool = self.pool(target)
        n = pool.n_answered(attribute)
        if n < 2:
            return 0.0
        mean_var = self._mean_variance(attribute)
        target_var = self.target_variance(target)
        measured = self.s_o_measured(target, attribute) or 0.0
        return float(np.sqrt((mean_var * target_var + measured**2) / n))

    def s_o_shrunk(self, target: str, attribute: str) -> float | None:
        """Soft-thresholded ``S_o[t, a]`` (None when not measured).

        Shrinks the magnitude toward zero by one standard error while
        preserving the sign.
        """

        def compute() -> float | None:
            measured = self.s_o_measured(target, attribute)
            if measured is None:
                return None
            standard_error = self._s_o_standard_error(target, attribute)
            return _soft_threshold(measured, self.SHRINKAGE_KAPPA * standard_error)

        return self._memo(("s_o_shrunk", target, attribute), compute, (attribute,))

    def _s_a_shrunk(self, attribute_a: str, attribute_b: str) -> float | None:
        """Soft-thresholded off-diagonal ``S_a`` entry.

        The standard error counts the examples the covariance was
        actually taken over: examples with an empty (spam-rejected)
        batch for either attribute do not shrink it.
        """
        if attribute_a == attribute_b:
            return self._denoised_variance(attribute_a)

        def compute() -> float | None:
            pooled = self._s_a_pooled(attribute_a, attribute_b)
            if pooled is None:
                return None
            entry, n = pooled
            var_ab = self._mean_variance(attribute_a) * self._mean_variance(attribute_b)
            standard_error = float(np.sqrt((var_ab + entry**2) / n))
            return _soft_threshold(entry, self.SHRINKAGE_KAPPA * standard_error)

        key = ("s_a_shrunk",) + tuple(sorted((attribute_a, attribute_b)))
        return self._memo(key, compute, (attribute_a, attribute_b))

    def rho(self, target: str, attribute: str) -> float | None:
        """Measured signed correlation of an attribute with a target.

        Returns ``None`` when the pair was never collected; clipped to
        ``[-1, 1]``.
        """
        s_o = self.s_o_measured(target, attribute)
        if s_o is None:
            return None
        denominator = self.answer_sigma(attribute) * self.target_sigma(target)
        if denominator <= 0:
            return 0.0
        return float(np.clip(s_o / denominator, -1.0, 1.0))

    # ------------------------------------------------------------------
    # Matrix assembly for the objective
    # ------------------------------------------------------------------

    #: Cap on the correlations implied by sampled covariances.  Raw
    #: sample covariances over N_1 examples routinely violate the
    #: Cauchy-Schwarz bound |Cov(x,y)| <= sigma(x)sigma(y) that the true
    #: moments must satisfy; feeding such inconsistent estimates into
    #: the expression-2 objective makes V(b) exceed Var(target) and the
    #: greedy allocator chase phantom value.  Projecting onto the
    #: feasible cone (with a small margin) removes the pathology.
    RHO_CAP = 0.98

    def assemble(
        self,
        attributes: list[str],
        target: str,
        s_o_fill: "SoFill | None" = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build ``(S_o vector, S_a matrix, S_c vector)`` over ``attributes``.

        Missing ``S_o`` entries are filled through ``s_o_fill`` (zero if
        no estimator is given); missing ``S_a`` entries become 0 — the
        paper's low-correlation prior.  All covariances are projected
        onto the Cauchy-Schwarz-consistent cone (see :attr:`RHO_CAP`).
        """
        n = len(attributes)
        s_o = np.zeros(n)
        s_c = np.zeros(n)
        s_a = np.zeros((n, n))
        target_sigma = self.target_sigma(target)
        for i, attribute in enumerate(attributes):
            measured = self.s_o_shrunk(target, attribute)
            if measured is not None:
                s_o[i] = measured
            elif s_o_fill is not None:
                s_o[i] = s_o_fill(self, target, attribute)
            s_c[i] = self.s_c(attribute)
            for j in range(i, n):
                entry = self._s_a_shrunk(attribute, attributes[j])
                value = 0.0 if entry is None else entry
                s_a[i, j] = value
                s_a[j, i] = value
        # Consistency projection.  An attribute whose de-noised variance
        # collapsed to the floor carries no usable signal IF it was
        # actually measured — its covariances are sampling noise and are
        # zeroed (a never-measured attribute instead keeps its
        # estimator-filled S_o: its variance is simply unknown).  All
        # remaining covariances are clipped to the Cauchy-Schwarz cone.
        diag = np.diag(s_a).copy()
        reliable = diag > 2 * VARIANCE_FLOOR
        was_measured = np.array(
            [self.s_o_measured(target, a) is not None for a in attributes],
            dtype=bool,
        )
        noise_only = ~reliable & was_measured
        s_o[noise_only] = 0.0
        for i in np.flatnonzero(~reliable):
            s_a[i, :] = 0.0
            s_a[:, i] = 0.0
            s_a[i, i] = diag[i]
        diag_sigma = np.sqrt(diag)
        s_o_bound = np.where(
            reliable, self.RHO_CAP * diag_sigma * target_sigma, np.inf
        )
        s_o = np.clip(s_o, -s_o_bound, s_o_bound)
        bound = self.RHO_CAP * np.outer(diag_sigma, diag_sigma)
        np.fill_diagonal(bound, diag)
        s_a = np.clip(s_a, -bound, bound)
        return s_o, s_a, s_c


# A fill callback: (store, target, attribute) -> estimated S_o value.
from typing import Callable  # noqa: E402  (kept local to the alias)

SoFill = Callable[[StatisticsStore, str, str], float]
