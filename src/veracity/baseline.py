"""Self-contained probabilistic text classifier.

A multinomial bag-of-words model with additive smoothing. It exists so
the whole pipeline runs end to end without any external model: it emits
the same (p_real, p_fake) prediction vectors that externally supplied
per-model prediction files carry, and the ensemble does not care which
source they came from. All arithmetic is in log space.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, KeysView, NamedTuple, Sequence

from .corpus import Label, LABELS, NewsItem
from .errors import BadRecord, DataError, DegenerateTraining
from .fileio import atomic_write_text, open_lines, write_tsv
from .preprocess import CleanPolicy, clean_text

_TOKEN_RE = re.compile(r"\w+")

DEFAULT_MODEL_NAME = "baseline-bow"
#: Posts per chunk of training text that `pipeline` and `ablate` share out (see count_text).
CHUNK_POSTS = 512
Claim = Callable[[int], bool]  # true for each chunk number that this process is to count


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens; punctuation and whitespace delimit."""
    return _TOKEN_RE.findall(text.lower())


class PredictionVector(NamedTuple):
    """One model's class probabilities for one item."""

    item_id: int
    p_real: float
    p_fake: float
    model_name: str


@dataclass
class BowModel:
    """Trained bag-of-words model. Counts are the persistent state; the
    log priors and `pairs`, which maps each vocabulary token to its
    (real, fake) log likelihood so that scoring a token is one lookup,
    are derived on construction. `vocabulary` is a read-only view of `pairs`."""

    class_doc_counts: dict[Label, int]
    token_counts: dict[Label, dict[str, int]]
    smoothing_alpha: float
    clean_policy: CleanPolicy = field(default_factory=CleanPolicy)
    model_name: str = DEFAULT_MODEL_NAME
    class_log_priors: dict[Label, float] = field(init=False, repr=False)
    pairs: dict[str, tuple[float, float]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        total_docs = sum(self.class_doc_counts.values())
        if total_docs == 0 or any(self.class_doc_counts.get(c, 0) == 0 for c in LABELS):
            raise DegenerateTraining("both classes must be present in the training data")
        if not 0 < self.smoothing_alpha < math.inf:
            raise ValueError("smoothing_alpha must be finite and positive")
        self.class_log_priors = {
            c: math.log(self.class_doc_counts[c] / total_docs) for c in LABELS
        }
        alpha = self.smoothing_alpha
        real, fake = (self.token_counts.get(c, {}) for c in LABELS)
        vocabulary = dict.fromkeys(chain(real, fake))
        real_denominator = sum(real.values()) + alpha * len(vocabulary)
        fake_denominator = sum(fake.values()) + alpha * len(vocabulary)
        self.pairs = {
            token: (
                math.log((real.get(token, 0) + alpha) / real_denominator),
                math.log((fake.get(token, 0) + alpha) / fake_denominator),
            )
            for token in vocabulary
        }

    @property
    def vocabulary(self) -> KeysView[str]:
        return self.pairs.keys()


def count_text(
    items: Iterable[NewsItem], policy: CleanPolicy, counts: dict, claim: Claim | None = None
) -> Iterator[NewsItem]:
    """Yield labeled items, having counted into counts[label] the tokens of
    each one's cleaned text, or with claim, of the chunks of CHUNK_POSTS it grants."""
    for n, item in enumerate(items):
        if item.label is None:
            raise DegenerateTraining(f"item {item.id} is unlabeled")
        if n % CHUNK_POSTS == 0:
            counted = claim is None or claim(n // CHUNK_POSTS)
        if counted:
            counts[item.label].update(tokenize(clean_text(item.text, policy)))
        yield item


def train(
    items: Iterable[NewsItem],
    policy: CleanPolicy | None = None,
    alpha: float = 1.0,
    model_name: str = DEFAULT_MODEL_NAME,
    claim: Claim | None = None,
    rest: Callable[[], dict[Label, Counter[str]]] = dict,
) -> BowModel:
    """Fit the model on labeled items, which may be a stream.

    Text is cleaned per the policy first (attribute noise never enters
    the vocabulary under the default policy), then tokenized. Counting
    is order-independent, so training is deterministic regardless of
    dataset order, and rest() adds the chunks claim does not grant (see
    count_text). Raises DegenerateTraining unless both classes occur.
    """
    policy = CleanPolicy() if policy is None else policy
    token_counts: dict[Label, Counter[str]] = {c: Counter() for c in LABELS}
    class_doc_counts = Counter(item.label for item in count_text(items, policy, token_counts, claim))
    for label, counts in rest().items():  # integers, so the sums are exact in any order
        counts.update(token_counts[label])  # summed into the received counts: fewer heap holes
        token_counts[label] = counts
    return BowModel(class_doc_counts, token_counts, alpha, policy, model_name)


def predict(model: BowModel, text: str, item_id: int = -1) -> PredictionVector:
    """Posterior class probabilities for one text.

    Out-of-vocabulary tokens are ignored; with no usable tokens the
    output is the class priors, up to float rounding. The pair always
    sums to 1 up to float rounding.
    """
    pairs = model.pairs
    score_real = model.class_log_priors[Label.REAL]
    score_fake = model.class_log_priors[Label.FAKE]
    for token in tokenize(clean_text(text, model.clean_policy)):
        pair = pairs.get(token)
        if pair is not None:
            score_real += pair[0]
            score_fake += pair[1]
    peak = max(score_real, score_fake)
    u_real, u_fake = math.exp(score_real - peak), math.exp(score_fake - peak)
    z = u_real + u_fake
    return PredictionVector(
        item_id=item_id,
        p_real=u_real / z,
        p_fake=u_fake / z,
        model_name=model.model_name,
    )


def predict_dataset(model: BowModel, items: Iterable[NewsItem]) -> list[PredictionVector]:
    return [predict(model, item.text, item.id) for item in items]


def save_model(model: BowModel, path: Path | str, config_hash: str | None = None) -> None:
    """Persist counts and alpha as JSON, written as it is encoded, every
    mapping in key order; log-space values are derived again at load time."""
    document = {
        "model_name": model.model_name,
        "smoothing_alpha": model.smoothing_alpha,
        "clean_policy": asdict(model.clean_policy),
        "class_doc_counts": {c.value: model.class_doc_counts[c] for c in LABELS},
        "token_counts": {c.value: model.token_counts[c] for c in LABELS},
    }
    if config_hash is not None:
        document["config_hash"] = config_hash
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(document)
    atomic_write_text(Path(path), chain(pieces, ["\n"]))


def _count(value) -> int:
    """A JSON integer that is not negative; not a float, string or boolean."""
    if type(value) is not int or value < 0:
        raise ValueError(f"count {value!r} is not a non-negative integer")
    return value


def load_model(path: Path | str) -> BowModel:
    """Read a model written by save_model; anything else is a BadRecord
    naming the file."""
    path = Path(path)
    with open_lines(path) as lines:
        text = "".join(lines)
    try:
        document = json.loads(text)
        return BowModel(
            class_doc_counts={
                Label.parse(name): _count(count)
                for name, count in document["class_doc_counts"].items()
            },
            token_counts={
                Label.parse(name): {t: _count(n) for t, n in counts.items()}
                for name, counts in document["token_counts"].items()
            },
            smoothing_alpha=float(document["smoothing_alpha"]),
            clean_policy=CleanPolicy(**document["clean_policy"]),
            model_name=str(document["model_name"]),
        )
    except (ArithmeticError, AttributeError, DataError, KeyError, TypeError, ValueError) as exc:
        raise BadRecord(f"not a saved model: {exc}", source=path.name) from None


def write_predictions(
    vectors: Sequence[PredictionVector], path: Path | str, header_comment: str | None = None
) -> None:
    """Write vectors in the per-model prediction file shape the ensemble
    loader reads back."""
    rows = ((v.item_id, v.p_real, v.p_fake) for v in sorted(vectors, key=lambda v: v.item_id))
    write_tsv(path, ("id", "p_real", "p_fake"), rows, header_comment)
