"""Worker models.

Workers generate answers to the four question types against a ground
truth :class:`~repro.domains.base.Domain`.  The paper assumes workers
are independent and that spam filters remove malicious ones; we provide
an honest-but-noisy worker matching those assumptions, a systematically
biased worker, and a spammer (to exercise the spam filter).

The honest worker's value answer is ``truth + eps`` with
``eps ~ N(0, difficulty(a))``, which makes the population statistics
the DisQ planner estimates coincide with the domain specification:
``E_O[Var(o.a^(1))] = difficulty(a)`` and the answer/target covariances
equal the true-value covariances.

Each worker type writes its value answer once, in ``answer_value``,
and the caller supplies the random stream: the offline platform passes
the worker's private generator, the serving tier a per-coordinate one
(:mod:`repro.serve.stream`).  Every persistent per-worker effect (a
biased worker's bias, a ring's shared error) is a pure function of
seeds and names, so both callers see the same answer model.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod

import numpy as np

from repro.domains.base import IRRELEVANT, Domain


class Worker(ABC):
    """One crowd member with a private random stream.

    Parameters
    ----------
    worker_id:
        Stable identifier (used by the spam filter and the recorder).
    seed:
        Seed of the worker's private RNG; distinct seeds give the
        independent workers the paper assumes.
    """

    def __init__(self, worker_id: int, seed: int) -> None:
        self.worker_id = worker_id
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        #: Multiplier on this worker's operational fault probabilities
        #: (timeouts, abandons, garbage) under fault injection; 1.0 is
        #: an average worker.  Set by the pool when heterogeneity is
        #: configured — it concentrates faults on a few workers, which
        #: is what makes per-worker quarantine effective.
        self.fault_proneness: float = 1.0

    @property
    def rng(self) -> np.random.Generator:
        """The worker's private random stream (the offline callers'
        ``rng`` for :meth:`answer_value`)."""
        return self._rng

    # -- the four question types ---------------------------------------

    @abstractmethod
    def answer_value(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        """Estimate ``o.a`` for one object, drawing from ``rng``.

        The caller supplies the random stream: the worker's own
        :attr:`rng` for the offline platform, or a generator derived
        from ``(seed, object, attribute, index)`` for the serving
        tier's per-coordinate streams.  Either way the answer model is
        the same; only the source of randomness differs.
        """

    @abstractmethod
    def answer_dismantle(self, domain: Domain, attribute: str) -> str:
        """Suggest an attribute that may help estimating ``attribute``."""

    @abstractmethod
    def answer_verification(
        self, domain: Domain, attribute: str, candidate: str
    ) -> bool:
        """Vote on whether ``candidate`` helps estimating ``attribute``."""

    def provide_example(
        self, domain: Domain, targets: tuple[str, ...]
    ) -> tuple[int, dict[str, float]]:
        """Supply an example object together with true target values.

        The paper assumes example values are correct (its authors used
        lab members as a gold-standard crowd), so every worker type
        reports the ground truth here.
        """
        object_id = domain.sample_object(self._rng)
        values = {target: domain.true_value(object_id, target) for target in targets}
        return object_id, values

    # -- helpers ---------------------------------------------------------

    def _surface_form(self, domain: Domain, attribute: str, synonym_rate: float) -> str:
        """Possibly replace an attribute name by one of its synonyms."""
        forms = domain.synonyms(attribute)
        if forms and self._rng.random() < synonym_rate:
            return str(self._rng.choice(forms))
        return attribute

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the worker's random stream."""
        return {"rng": self._rng.bit_generator.state}

    def restore_state(self, payload: dict) -> None:
        """Restore the worker's random stream from :meth:`state_dict`."""
        self._rng.bit_generator.state = payload["rng"]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.worker_id})"


class HonestWorker(Worker):
    """A well-meaning worker with attribute-dependent noise.

    Parameters
    ----------
    skill:
        Multiplier on the answer-noise variance; 1.0 is an average
        worker, below 1.0 is better than average.
    reliability:
        Probability of voting correctly on a verification question.
    synonym_rate:
        Probability of phrasing a dismantling answer with a synonym
        instead of the canonical attribute name.
    """

    def __init__(
        self,
        worker_id: int,
        seed: int,
        skill: float = 1.0,
        reliability: float = 0.8,
        synonym_rate: float = 0.3,
    ) -> None:
        super().__init__(worker_id, seed)
        self.skill = skill
        self.reliability = reliability
        self.synonym_rate = synonym_rate

    def _noise_sd(self, domain: Domain, object_id: int, attribute: str) -> float:
        """Standard deviation of this worker's answer noise on ``o.a``."""
        return float(np.sqrt(self.skill * domain.difficulty(attribute)))

    def answer_value(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        truth = domain.true_value(object_id, attribute)
        answer = truth + rng.normal(
            0.0, self._noise_sd(domain, object_id, attribute)
        )
        if domain.is_binary(attribute):
            answer = float(np.clip(answer, 0.0, 1.0))
        return float(answer)

    def answer_dismantle(self, domain: Domain, attribute: str) -> str:
        distribution = domain.dismantle_distribution(attribute)
        names = list(distribution)
        probabilities = np.array([distribution[name] for name in names], dtype=float)
        probabilities = probabilities / probabilities.sum()
        choice = str(names[self._rng.choice(len(names), p=probabilities)])
        if choice == IRRELEVANT:
            # A uniformly random attribute genuinely unrelated to this one.
            choice = str(self._rng.choice(domain.irrelevant_candidates(attribute)))
        return self._surface_form(domain, choice, self.synonym_rate)

    def answer_verification(
        self, domain: Domain, attribute: str, candidate: str
    ) -> bool:
        truth = domain.is_relevant(attribute, candidate)
        if self._rng.random() < self.reliability:
            return truth
        return not truth


class BiasedWorker(HonestWorker):
    """An honest worker with a persistent additive bias per attribute.

    The bias for each attribute is a normal with standard deviation
    ``bias_scale`` times the worker-noise standard deviation; it shifts
    every value answer the worker gives for that attribute.  This
    models systematic over/under estimators, a second-order effect the
    paper's averaging absorbs.
    """

    def __init__(
        self,
        worker_id: int,
        seed: int,
        bias_scale: float = 0.5,
        **kwargs: float,
    ) -> None:
        super().__init__(worker_id, seed, **kwargs)
        self.bias_scale = bias_scale
        self._biases: dict[str, float] = {}

    def bias(self, domain: Domain, attribute: str) -> float:
        """The persistent bias for ``attribute`` (memoized).

        Derived from the worker's seed and the attribute name (crc32,
        not hash(): hash() is per-process), never from a random stream,
        so the offline platform and the serving tier see the same bias
        whatever order the questions come in.
        """
        cached = self._biases.get(attribute)
        if cached is None:
            noise_sd = np.sqrt(self.skill * domain.difficulty(attribute))
            bias_rng = np.random.default_rng(
                [self._seed, zlib.crc32(attribute.encode("utf-8"))]
            )
            cached = float(bias_rng.normal(0.0, self.bias_scale * noise_sd))
            self._biases[attribute] = cached
        return cached

    def answer_value(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        answer = super().answer_value(domain, object_id, attribute, rng)
        answer += self.bias(domain, attribute)
        if domain.is_binary(attribute):
            answer = float(np.clip(answer, 0.0, 1.0))
        return answer


class CollusionRingWorker(HonestWorker):
    """A member of a colluding ring agreeing on per-question errors.

    Every ring member derives the *same* additive error for each
    (attribute, object) pair from the shared ``ring_seed`` instead of
    their private seed — the coordinated-adversary case: the ring
    agrees on a wrong answer per question, so its errors are perfectly
    correlated and a uniform mean is shifted by the full shared error
    instead of averaging it away.  Because the error varies per object
    (zero-mean across the database), no fitted intercept can calibrate
    it out the way a constant shift would be.  Per-question noise stays
    private (members answer slightly differently, so naive duplicate
    detection does not expose them).

    The shared error is a pure function of ``(ring_seed, attribute,
    object_id)``, so it is the same whichever random stream the answer
    draws its noise from; the batched stream routes these lanes through
    scalar replay (unknown exact type), which preserves byte identity
    by construction.
    """

    def __init__(
        self,
        worker_id: int,
        seed: int,
        ring_seed: int,
        bias_scale: float = 1.0,
        **kwargs: float,
    ) -> None:
        super().__init__(worker_id, seed, **kwargs)
        self.bias_scale = bias_scale
        self.ring_seed = int(ring_seed)
        self._ring_biases: dict[tuple[str, int], float] = {}

    def _ring_bias(self, domain: Domain, attribute: str, object_id: int) -> float:
        key = (attribute, int(object_id))
        cached = self._ring_biases.get(key)
        if cached is None:
            noise_sd = np.sqrt(self.skill * domain.difficulty(attribute))
            bias_rng = np.random.default_rng(
                [
                    self.ring_seed,
                    zlib.crc32(attribute.encode("utf-8")),
                    int(object_id),
                ]
            )
            cached = float(bias_rng.normal(0.0, self.bias_scale * noise_sd))
            self._ring_biases[key] = cached
        return cached

    def answer_value(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        answer = super().answer_value(domain, object_id, attribute, rng)
        answer += self._ring_bias(domain, attribute, object_id)
        if domain.is_binary(attribute):
            answer = float(np.clip(answer, 0.0, 1.0))
        return answer


class DriftingWorker(HonestWorker):
    """An honest worker whose answer noise grows along the object axis.

    Models reliability drift (fatigue, declining attention): the noise
    variance for object ``o`` is scaled by ``1 + drift_rate * o``.  The
    drift is keyed to the object id — the serving tier's only
    deterministic notion of progress — so answers stay pure functions
    of their inputs and every byte-identity gate holds.
    """

    def __init__(
        self,
        worker_id: int,
        seed: int,
        drift_rate: float = 0.02,
        **kwargs: float,
    ) -> None:
        super().__init__(worker_id, seed, **kwargs)
        self.drift_rate = float(drift_rate)

    def _noise_sd(self, domain: Domain, object_id: int, attribute: str) -> float:
        scale = 1.0 + self.drift_rate * max(int(object_id), 0)
        return float(np.sqrt(self.skill * scale * domain.difficulty(attribute)))


class SleeperWorker(HonestWorker):
    """A spammer who behaves until the gold screen stops looking.

    Gold-standard screening checks workers on a known prefix of the
    object set; a sleeper answers those honestly and turns to spam
    afterwards.  The turn is keyed to the object id (``object_id >=
    patience``) rather than a stateful answer counter, so answers stay
    pure per-coordinate functions on the serving tier.
    """

    def __init__(
        self,
        worker_id: int,
        seed: int,
        patience: int = 50,
        **kwargs: float,
    ) -> None:
        super().__init__(worker_id, seed, **kwargs)
        if patience < 0:
            raise ValueError(f"patience must be >= 0, got {patience}")
        self.patience = int(patience)

    def answer_value(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        if int(object_id) < self.patience:
            return super().answer_value(domain, object_id, attribute, rng)
        low, high = domain.answer_range(attribute)
        return float(rng.uniform(low, high))


class SpamWorker(Worker):
    """A malicious/lazy worker producing uninformative answers.

    Value answers are uniform over the attribute's plausible range,
    dismantling answers are uniform over the attribute universe, and
    verification votes are fair coin flips.  Spam workers exist to
    exercise :mod:`repro.crowd.spam`; the paper assumes they are
    filtered out before aggregation.
    """

    def answer_value(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        low, high = domain.answer_range(attribute)
        return float(rng.uniform(low, high))

    def answer_dismantle(self, domain: Domain, attribute: str) -> str:
        candidates = [name for name in domain.attributes() if name != attribute]
        return str(self._rng.choice(candidates))

    def answer_verification(
        self, domain: Domain, attribute: str, candidate: str
    ) -> bool:
        return bool(self._rng.random() < 0.5)
