from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from veracity.baseline import PredictionVector, write_predictions
from veracity.corpus import Label
from veracity.ensemble import (
    EnsembleResult,
    PredictionMatrix,
    VotingScheme,
    hard_vote,
    load_predictions,
    matrix_from_vectors,
    restrict_to,
    soft_vote,
    vote_all,
    write_ensemble_tsv,
)
from veracity.errors import (
    BadProbabilities,
    BadRecord,
    DuplicateId,
    IdSetMismatch,
    NoModels,
)
from veracity.fileio import data_rows, open_lines, parse_id


def pv(p_real, item_id=0, name="m"):
    return PredictionVector(item_id, p_real, 1.0 - p_real, name)


def test_soft_vote_mean():
    result = soft_vote([pv(0.6), pv(0.8)])
    assert abs(result.p_real - 0.7) <= 1e-12
    assert result.label is Label.REAL
    assert result.scheme is VotingScheme.SOFT


def test_soft_vote_exact_tie_goes_real():
    assert soft_vote([pv(0.5)]).label is Label.REAL


def test_soft_vote_three_models():
    result = soft_vote([pv(0.9), pv(0.2), pv(0.2)])
    assert abs(result.p_real - (0.9 + 0.2 + 0.2) / 3) <= 1e-12
    assert result.label is Label.FAKE


def test_hard_vote_majority():
    result = hard_vote([pv(0.6), pv(0.4), pv(0.7)])
    assert (result.votes_real, result.votes_fake) == (2, 1)
    assert result.label is Label.REAL


def test_hard_vote_per_model_tie_votes_real():
    result = hard_vote([pv(0.5)])
    assert result.votes_real == 1
    assert result.label is Label.REAL


def test_hard_vote_overall_tie_goes_real():
    result = hard_vote([pv(0.9), pv(0.4)])
    assert (result.votes_real, result.votes_fake) == (1, 1)
    assert result.label is Label.REAL


def test_empty_row_rejected():
    with pytest.raises(NoModels):
        soft_vote([])
    with pytest.raises(NoModels):
        hard_vote([])


def test_mixed_item_ids_rejected():
    with pytest.raises(ValueError):
        soft_vote([pv(0.5, item_id=1), pv(0.5, item_id=2)])


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6), st.randoms())
def test_votes_sum_to_model_count_and_permutation_invariance(p_reals, rng):
    row = [pv(p) for p in p_reals]
    shuffled = list(row)
    rng.shuffle(shuffled)
    for scheme_vote in (soft_vote, hard_vote):
        first = scheme_vote(row)
        second = scheme_vote(shuffled)
        assert first.votes_real + first.votes_fake == len(row)
        assert first.label is second.label
        assert abs(first.p_real - second.p_real) <= 1e-9
        assert (first.votes_real, first.votes_fake) == (second.votes_real, second.votes_fake)


@given(st.floats(0.0, 1.0), st.integers(1, 5))
def test_soft_vote_idempotent_on_identical_vectors(p_real, n):
    result = soft_vote([pv(p_real)] * n)
    assert abs(result.p_real - p_real) <= 1e-9
    assert abs(result.p_fake - (1.0 - p_real)) <= 1e-9


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
    st.integers(0, 4),
    st.floats(0.0, 1.0),
)
def test_soft_label_monotone_in_any_single_model(p_reals, index, bumped):
    row = [pv(p) for p in p_reals]
    index %= len(row)
    before = soft_vote(row)
    if bumped < p_reals[index]:
        return
    row[index] = pv(bumped)
    after = soft_vote(row)
    if before.label is Label.REAL:
        assert after.label is Label.REAL


def test_hard_equals_soft_when_all_models_agree():
    grid = [k / 10 for k in range(11)]
    for n in (1, 2, 3):
        for combo in itertools.product(grid, repeat=n):
            argmaxes = {p >= 0.5 for p in combo}
            if len(argmaxes) != 1 or any(p == 0.5 for p in combo):
                continue
            row = [pv(p) for p in combo]
            assert hard_vote(row).label is soft_vote(row).label


def _write_predictions(path, rows, header="id\tp_real\tp_fake"):
    lines = [header] + [f"{i}\t{r}\t{f}" for i, r, f in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_predictions_two_files(tmp_path):
    a, b = tmp_path / "model_a.tsv", tmp_path / "model_b.tsv"
    _write_predictions(a, [(1, 0.6, 0.4), (2, 0.3, 0.7)])
    _write_predictions(b, [(2, 0.2, 0.8), (1, 0.9, 0.1)])
    matrix = load_predictions([a, b])
    assert matrix.model_names == ("model_a", "model_b")
    assert matrix.item_ids == (1, 2)
    assert matrix.rows[1][1].p_real == 0.9
    results = vote_all(matrix, VotingScheme.SOFT)
    assert [r.item_id for r in results] == [1, 2]
    assert abs(results[0].p_real - 0.75) <= 1e-12


def test_load_predictions_id_mismatch(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    _write_predictions(a, [(1, 0.6, 0.4), (2, 0.3, 0.7)])
    _write_predictions(b, [(1, 0.6, 0.4), (3, 0.3, 0.7)])
    with pytest.raises(IdSetMismatch) as exc_info:
        load_predictions([a, b])
    assert "a.tsv" in str(exc_info.value) and "b.tsv" in str(exc_info.value)


def test_load_predictions_parse_error_beats_earlier_id_mismatch(tmp_path):
    """Files are aligned as they are read, yet the first error is the one
    reading every file first gives: a bad row in the third file comes
    before a mismatch between the first two, and the first mismatch is
    reported with its missing and unexpected ids."""
    a, b, c = (tmp_path / f"{name}.tsv" for name in "abc")
    _write_predictions(a, [(1, 0.6, 0.4), (2, 0.3, 0.7)])
    _write_predictions(b, [(1, 0.6, 0.4), (3, 0.3, 0.7)])
    _write_predictions(c, [(1, 0.6, 0.4), (2, "x", 0.7)])
    with pytest.raises(BadRecord) as exc_info:
        load_predictions([a, b, c])
    assert "in c.tsv (line 3)" in str(exc_info.value)
    _write_predictions(c, [(1, 0.6, 0.4), (4, 0.3, 0.7)])
    with pytest.raises(IdSetMismatch) as exc_info:
        load_predictions([a, b, c])
    assert str(exc_info.value) == (
        "prediction id sets do not line up: a.tsv vs b.tsv (missing e.g. [2], unexpected e.g. [3])"
    )


def test_load_predictions_renormalizes_within_window(tmp_path):
    path = tmp_path / "m.tsv"
    _write_predictions(path, [(1, 0.7, 0.31), (2, 0.495, 0.495)])
    matrix = load_predictions([path])
    vector = matrix.rows[1][0]
    assert abs(vector.p_real + vector.p_fake - 1.0) <= 1e-12
    assert abs(vector.p_real - 0.7 / 1.01) <= 1e-12
    assert matrix.rows[2][0].p_real == 0.5


def test_load_predictions_rejects_bad_sums_and_negatives(tmp_path):
    path = tmp_path / "m.tsv"
    _write_predictions(path, [(1, 0.7, 0.2)])
    with pytest.raises(BadProbabilities):
        load_predictions([path])
    _write_predictions(path, [(1, 1.2, -0.2)])
    with pytest.raises(BadProbabilities):
        load_predictions([path])


def test_load_predictions_window_boundaries_inclusive(tmp_path):
    path = tmp_path / "m.tsv"
    _write_predictions(path, [(1, 0.99, 0.0), (2, 1.01, 0.0)])
    matrix = load_predictions([path])
    assert matrix.rows[1][0].p_real == 1.0
    assert matrix.rows[2][0].p_real == 1.0


def test_load_predictions_duplicate_id(tmp_path):
    path = tmp_path / "m.tsv"
    _write_predictions(path, [(1, 0.6, 0.4), (1, 0.6, 0.4)])
    with pytest.raises(DuplicateId):
        load_predictions([path])


def test_load_predictions_header_required(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("1\t0.6\t0.4\n", encoding="utf-8")
    with pytest.raises(BadRecord):
        load_predictions([path])


def test_load_predictions_skips_comments(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("# config: abc\nid\tp_real\tp_fake\n1\t0.6\t0.4\n", encoding="utf-8")
    assert load_predictions([path]).item_ids == (1,)


def test_load_predictions_explicit_names(tmp_path):
    path = tmp_path / "whatever.tsv"
    _write_predictions(path, [(1, 0.6, 0.4)])
    matrix = load_predictions([path], ["fancy"])
    assert matrix.model_names == ("fancy",)
    assert matrix.rows[1][0].model_name == "fancy"


def test_matrix_from_vectors_alignment():
    vectors_a = [pv(0.6, item_id=1, name="a"), pv(0.2, item_id=2, name="a")]
    vectors_b = [pv(0.8, item_id=2, name="b"), pv(0.4, item_id=1, name="b")]
    matrix = matrix_from_vectors({"a": vectors_a, "b": vectors_b})
    assert matrix.rows[2][0].p_real == 0.2
    assert matrix.rows[2][1].p_real == 0.8
    with pytest.raises(IdSetMismatch):
        matrix_from_vectors({"a": vectors_a, "b": vectors_b[:1]})


def test_same_stem_in_two_directories_gives_two_columns(tmp_path):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    a, b = tmp_path / "x" / "model.tsv", tmp_path / "y" / "model.tsv"
    _write_predictions(a, [(1, 0.6, 0.4), (2, 0.3, 0.7)])
    _write_predictions(b, [(2, 0.2, 0.8), (1, 0.9, 0.1)])
    matrix = load_predictions([a, b])
    assert matrix.model_names == ("model", "model")
    assert [vector.p_real for vector in matrix.rows[1]] == [0.6, 0.9]
    assert [vector.p_real for vector in matrix.rows[2]] == [0.3, 0.2]


def test_matrix_from_vectors_mismatch_names_ids():
    vectors_a = [pv(0.5, item_id=i, name="a") for i in (1, 2, 3, 4)]
    vectors_b = [pv(0.5, item_id=i, name="b") for i in (3, 4, 7, 8)]
    with pytest.raises(IdSetMismatch) as exc_info:
        matrix_from_vectors({"a": vectors_a, "b": vectors_b})
    message = str(exc_info.value)
    assert "'a'" in message and "'b'" in message
    assert "missing e.g. [1, 2]" in message and "unexpected e.g. [7, 8]" in message


def test_matrix_row_width_validated():
    with pytest.raises(IdSetMismatch):
        PredictionMatrix(("a", "b"), (1,), ((0.5,),), ((0.5,),))
    with pytest.raises(IdSetMismatch):
        PredictionMatrix(("a", "b"), (1, 2), ((0.5, 0.4), (0.5,)), ((0.5, 0.6), (0.5, 0.6)))


def test_matrix_item_ids_must_ascend():
    with pytest.raises(ValueError):
        PredictionMatrix(("a",), (2, 1), ((0.5, 0.4),), ((0.5, 0.6),))
    with pytest.raises(ValueError):
        PredictionMatrix(("a",), (1, 1), ((0.5, 0.4),), ((0.5, 0.6),))


def test_rows_view_builds_vectors_on_lookup():
    matrix = PredictionMatrix(
        ("a", "b"), (3, 7), ((0.6, 0.2), (0.9, 0.4)), ((0.4, 0.8), (0.1, 0.6))
    )
    assert len(matrix.rows) == 2
    assert list(matrix.rows) == [3, 7]
    assert matrix.rows[7] == (
        PredictionVector(7, 0.2, 0.8, "a"), PredictionVector(7, 0.4, 0.6, "b")
    )
    assert 3 in matrix.rows and 5 not in matrix.rows
    with pytest.raises(KeyError):
        matrix.rows[8]


def test_ensemble_tsv_round_trips_through_loader(tmp_path):
    results = vote_all(
        matrix_from_vectors({"m": [pv(0.61, item_id=3), pv(0.25, item_id=1)]})
    )
    out = tmp_path / "ens.tsv"
    write_ensemble_tsv(results, out, header_comment="config: xyz")
    text = out.read_text(encoding="utf-8").splitlines()
    assert text[0] == "# config: xyz"
    assert text[1] == "id\tp_real\tp_fake\tlabel"
    assert text[2].startswith("1\t") and text[3].startswith("3\t")
    assert text[2].endswith("fake") and text[3].endswith("real")


@pytest.mark.parametrize("seed", range(4))
def test_vote_all_sorted_by_id(seed):
    rng = random.Random(seed)
    ids = rng.sample(range(100), 10)
    matrix = matrix_from_vectors({"m": [pv(rng.random(), item_id=i) for i in ids]})
    results = vote_all(matrix, VotingScheme.HARD)
    assert [r.item_id for r in results] == sorted(ids)


# The row-based matrix the columnar one replaced, frozen as an oracle:
# one vector per item and model, rows keyed by id, every mean taken by
# the generator sums below. Ids are read by the readers' one id parser.


def oracle_read(path, model_name):
    vectors = {}
    with open_lines(path) as lines:
        rows = data_rows(lines)
        header = next(rows, None)
        if header is None:
            raise BadRecord("file is empty")
        if [cell.strip().lower() for cell in header] != ["id", "p_real", "p_fake"]:
            raise BadRecord(f"expected header id/p_real/p_fake, found {header!r}")
        for row in rows:
            if len(row) != 3:
                raise BadRecord(f"expected 3 columns, found {len(row)}")
            item_id = parse_id(row[0])
            try:
                p_real = float(row[1])
                p_fake = float(row[2])
            except ValueError:
                raise BadRecord(f"unparseable row {row!r}") from None
            if item_id in vectors:
                raise DuplicateId(item_id)
            if p_real < 0.0 or p_fake < 0.0:
                raise BadProbabilities(item_id, model_name, "negative probability")
            total = p_real + p_fake
            if not (0.99 <= total <= 1.01):
                raise BadProbabilities(
                    item_id, model_name, f"probabilities sum to {total!r}, outside [0.99, 1.01]"
                )
            vectors[item_id] = PredictionVector(item_id, p_real / total, p_fake / total, model_name)
    return vectors


def oracle_aligned(columns, sources):
    ids = columns[0].keys()
    for source, column in zip(sources[1:], columns[1:]):
        if column.keys() != ids:
            missing = sorted(ids - column.keys())[:3]
            extra = sorted(column.keys() - ids)[:3]
            raise IdSetMismatch(
                f"{sources[0]} vs {source} (missing e.g. {missing}, unexpected e.g. {extra})"
            )
    return {item_id: tuple(column[item_id] for column in columns) for item_id in sorted(ids)}


def oracle_load(paths):
    return oracle_aligned([oracle_read(p, p.stem) for p in paths], [p.name for p in paths])


def oracle_restrict(rows, ids):
    wanted = sorted(set(ids))
    missing = [item_id for item_id in wanted if item_id not in rows]
    if missing:
        raise IdSetMismatch(f"no predictions for items {missing[:5]}")
    return {item_id: rows[item_id] for item_id in wanted}


def oracle_row_stats(row):
    item_id = row[0].item_id
    if any(vector.item_id != item_id for vector in row):
        raise ValueError("a voting row must hold predictions for a single item")
    n = len(row)
    p_real = sum(vector.p_real for vector in row) / n
    p_fake = sum(vector.p_fake for vector in row) / n
    votes_real = sum(1 for vector in row if vector.p_real >= vector.p_fake)
    return item_id, p_real, p_fake, votes_real, n - votes_real


def oracle_vote_all(rows, scheme):
    results = []
    for item_id in sorted(rows):
        item_id, p_real, p_fake, votes_real, votes_fake = oracle_row_stats(rows[item_id])
        high, low = (p_real, p_fake) if scheme is VotingScheme.SOFT else (votes_real, votes_fake)
        label = Label.FAKE if low > high else Label.REAL  # an exact tie is real
        results.append(
            EnsembleResult(item_id, p_real, p_fake, votes_real, votes_fake, label, scheme)
        )
    return results


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the oracle and the program must fail alike
        return type(exc), str(exc)


# Dyadic values make per-model ties (0.5) and exact soft ties (means of
# 0.25 and 0.75) likely; a scale within the window forces renormalization.
PROBABILITIES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
SCALES = st.one_of(st.just(1.0), st.floats(0.991, 1.009))
FAULTS = st.sampled_from([None, "drop", "extra", "duplicate", "bad sum", "negative"])


@st.composite
def prediction_files(draw):
    ids = draw(st.lists(st.integers(-3, 10**6), unique=True, max_size=16))
    models = []
    for _ in range(draw(st.integers(1, 8))):
        rows = []
        for item_id in ids:
            p, scale = draw(PROBABILITIES), draw(SCALES)
            rows.append((item_id, p * scale, (1.0 - p) * scale))
        models.append(draw(st.permutations(rows)))
    fault = draw(FAULTS)
    if fault is not None:
        rows = models[draw(st.integers(0, len(models) - 1))]
        at = draw(st.integers(0, max(0, len(rows) - 1)))
        if fault == "extra" or not rows:
            rows.insert(at, (10**6 + 1, 0.5, 0.5))
        elif fault == "drop":
            del rows[at]
        elif fault == "duplicate":
            rows.insert(draw(st.integers(at + 1, len(rows))), rows[at])
        elif fault == "bad sum":
            rows[at] = (rows[at][0], 0.6, 0.42)
        else:
            rows[at] = (rows[at][0], 1.25, -0.25)
    covered = [row[0] for row in models[0]]
    wanted = draw(st.sets(st.sampled_from(covered))) if covered else set()
    return models, wanted


@settings(max_examples=300, deadline=None)
@given(prediction_files())
def test_columnar_matrix_matches_row_oracle(tmp_path_factory, case):
    models, wanted = case
    root = tmp_path_factory.mktemp("predictions")
    paths = []
    for index, rows in enumerate(models):
        paths.append(root / f"m{index}.tsv")
        _write_predictions(paths[-1], [(i, repr(r), repr(f)) for i, r, f in rows])
    matrix = _outcome(load_predictions, paths)
    rows = _outcome(oracle_load, paths)
    if isinstance(rows, tuple):
        assert matrix == rows
        return
    assert isinstance(matrix, PredictionMatrix)
    assert matrix.model_names == tuple(p.stem for p in paths)
    assert matrix.item_ids == tuple(rows)
    assert len(matrix.rows) == len(rows)
    assert all(matrix.rows[item_id] == row for item_id, row in rows.items())
    # the rows as written, which matrix_from_vectors checks and
    # renormalizes as the file reader does
    named = {
        path.stem: [PredictionVector(i, r, f, path.stem) for i, r, f in reversed(written)]
        for path, written in zip(paths, models)
    }
    assert matrix_from_vectors(named) == matrix
    restricted = restrict_to(matrix, wanted)
    restricted_rows = oracle_restrict(rows, wanted)
    assert restricted.item_ids == tuple(restricted_rows)
    assert all(restricted.rows[item_id] == row for item_id, row in restricted_rows.items())
    for scheme in VotingScheme:
        assert vote_all(matrix, scheme) == oracle_vote_all(rows, scheme)
        assert vote_all(restricted, scheme) == oracle_vote_all(restricted_rows, scheme)
    unknown = wanted | {-7, 10**6 + 2}
    assert _outcome(restrict_to, matrix, unknown) == _outcome(oracle_restrict, rows, unknown)


def _ulps_from(value, ulps):
    """value moved by |ulps| representable floats, up when ulps > 0."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


UNIT = st.floats(0.0, 1.0)
# pairs a few ulps either side of a sum of 1, and pairs scaled anywhere in the window
NEAR_ONE = st.builds(lambda p, ulps: (p, _ulps_from(1.0 - p, ulps)), UNIT, st.integers(-4, 4))
IN_WINDOW = st.builds(lambda p, total: (p * total, (1.0 - p) * total), UNIT, st.floats(0.99, 1.01))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(-3, 10**6), st.one_of(NEAR_ONE, IN_WINDOW), max_size=16))
def test_vectors_enter_a_matrix_as_their_file_does(tmp_path_factory, pairs):
    vectors = [PredictionVector(i, r, f, "m") for i, (r, f) in sorted(pairs.items())]
    path = tmp_path_factory.mktemp("vectors") / "m.tsv"
    write_predictions(vectors, path)
    try:
        expected = matrix_from_vectors({"m": vectors})
    except BadProbabilities as exc:  # a pair pushed just below 0 or out of the window
        line = 2 + [vector.item_id for vector in vectors].index(exc.item_id)
        with pytest.raises(BadProbabilities) as from_file:
            load_predictions([path])
        assert str(from_file.value) == f"{exc} in m.tsv (line {line})"
        return
    except BadRecord as exc:  # a negative id, which sorts first
        with pytest.raises(BadRecord) as from_file:
            load_predictions([path])
        assert str(from_file.value) == str(BadRecord(exc.detail, "m.tsv", 2))
        return
    assert load_predictions([path]) == expected


@pytest.mark.parametrize(
    "pair, detail",
    [
        ((1.25, -0.25), "negative probability"),
        ((0.5, 0.3), "probabilities sum to 0.8, outside [0.99, 1.01]"),
        ((0.6, 0.42), "probabilities sum to 1.02, outside [0.99, 1.01]"),
        ((math.nan, 0.5), "probabilities sum to nan, outside [0.99, 1.01]"),
    ],
)
def test_bad_vectors_fail_as_their_file_rows_do(tmp_path, pair, detail):
    vectors = [PredictionVector(1, 0.5, 0.5, "m"), PredictionVector(2, *pair, "m")]
    path = tmp_path / "m.tsv"
    write_predictions(vectors, path)
    with pytest.raises(BadProbabilities) as in_memory:
        matrix_from_vectors({"m": vectors})
    with pytest.raises(BadProbabilities) as from_file:
        load_predictions([path])
    assert str(in_memory.value) == f"model 'm', item 2: {detail}"
    assert str(from_file.value) == f"{in_memory.value} in m.tsv (line 3)"


def _eight_model_files(tmp_path):
    rng = random.Random(8)
    ids = rng.sample(range(1, 10**6), 2000)
    paths = []
    for k in range(8):
        paths.append(tmp_path / f"m{k}.tsv")
        rows = [(i, p, round(1.0 - p, 4)) for i in ids for p in [round(rng.random(), 4)]]
        _write_predictions(paths[-1], rows)
    return paths


def test_matrix_holds_under_100_bytes_per_cell(tmp_path):
    paths = _eight_model_files(tmp_path)
    tracemalloc.start()
    try:
        matrix = load_predictions(paths)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matrix.item_ids) * len(matrix.model_names) == 16_000
    assert held / 16_000 < 100


def test_loading_peaks_under_20_bytes_per_cell_above_the_matrix(tmp_path):
    """Each file's rows are dropped once its columns are built, so the
    load peaks at the matrix plus about one file's rows: 14 B per cell
    above what the matrix holds here, 27 B when one file's rows outlive
    its columns, and 112 B when every file's rows are held until the end.
    The excess is pinned, not the peak, because the peak moves with the
    interpreter's free lists while the excess does not."""
    paths = _eight_model_files(tmp_path)
    tracemalloc.start()
    try:
        matrix = load_predictions(paths)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matrix.item_ids) * len(matrix.model_names) == 16_000
    assert (peak - held) / 16_000 < 20


def test_building_from_vectors_peaks_at_twice_the_matrix():
    """The model's vectors become one id -> pair column, whose pairs are
    freed as their floats are copied out, with no list of the pairs or the
    floats in between, so building the matrix peaks below twice what it
    holds: 1.8x here, for a test split of the bench corpus's size, against
    2.7x when the pairs were listed before being copied. The vectors, like
    the built-in model's, exist before the call."""
    rng = random.Random(7)
    vectors = [
        PredictionVector(item_id, p, 1.0 - p, "bow")
        for item_id in rng.sample(range(1, 10**6), 10_700)
        for p in [rng.random()]
    ]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        matrix = matrix_from_vectors({"bow": vectors})
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matrix.item_ids) == 10_700
    assert peak - before <= 2 * (held - before)
