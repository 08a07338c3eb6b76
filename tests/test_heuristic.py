from __future__ import annotations

import itertools
import random
from operator import itemgetter

import pytest

from _synth import make_corpus
from veracity import heuristic
from veracity.attribute_stats import (
    AttrCounts,
    AttributeKind,
    AttributeStatsTable,
    AttrProbVector,
    build_table,
    tweet_attr_vector,
)
from veracity.baseline import PredictionVector
from veracity.corpus import Label, NewsItem
from veracity.ensemble import EnsembleResult, VotingScheme, matrix_from_vectors, vote_all
from veracity.errors import IdSetMismatch
from veracity.heuristic import (
    DecidedBy,
    HeuristicConfig,
    decide,
    decide_batch,
    decision_inputs,
    item_records,
    prepare_inputs,
    write_decisions_tsv,
)
from veracity.preprocess import extract_attributes

USERNAME = AttributeKind.USERNAME
DOMAIN = AttributeKind.DOMAIN


def ens(p_real, item_id=0):
    label = Label.REAL if p_real >= 0.5 else Label.FAKE
    return EnsembleResult(item_id, p_real, 1.0 - p_real, 0, 0, label, VotingScheme.SOFT)


def vec(p_real, support=10):
    return AttrProbVector(p_real, 1.0 - p_real, support, True)


ABSENT = AttrProbVector.absent()


def test_domain_rule_overrides_fake_ensemble():
    # The misclassified-but-corrected pattern: ensemble says fake, the
    # all-real domain flips it.
    decision = decide(ens(0.3), ABSENT, vec(1.0, support=274))
    assert decision.label is Label.REAL
    assert decision.decided_by is DecidedBy.DOMAIN_RULE


def test_fallthrough_to_ensemble_when_vectors_absent():
    decision = decide(ens(0.8), ABSENT, ABSENT)
    assert decision.label is Label.REAL
    assert decision.decided_by is DecidedBy.ENSEMBLE


def test_username_rule_overrides_real_ensemble():
    decision = decide(ens(0.9), vec(0.1), ABSENT)
    assert decision.label is Label.FAKE
    assert decision.decided_by is DecidedBy.USERNAME_RULE


def test_threshold_is_strict():
    # 0.87 < 0.88: rule must not fire; 0.88 == 0.88 also must not.
    decision = decide(ens(0.4), vec(0.87), ABSENT)
    assert decision.label is Label.FAKE
    assert decision.decided_by is DecidedBy.ENSEMBLE
    decision = decide(ens(0.4), vec(0.88), ABSENT)
    assert decision.decided_by is DecidedBy.ENSEMBLE
    decision = decide(ens(0.4), vec(0.8801), ABSENT)
    assert decision.decided_by is DecidedBy.USERNAME_RULE


def test_priority_order_decides_conflicts():
    username_vec, domain_vec = vec(0.95), vec(0.05)
    first = decide(ens(0.5), username_vec, domain_vec)
    assert (first.label, first.decided_by) == (Label.REAL, DecidedBy.USERNAME_RULE)
    cfg = HeuristicConfig(priority=(DOMAIN, USERNAME))
    second = decide(ens(0.5), username_vec, domain_vec, cfg)
    assert (second.label, second.decided_by) == (Label.FAKE, DecidedBy.DOMAIN_RULE)


def test_single_attribute_priority_subset():
    cfg = HeuristicConfig(priority=(DOMAIN,))
    decision = decide(ens(0.3), vec(0.99), ABSENT, cfg)
    assert decision.decided_by is DecidedBy.ENSEMBLE  # username ignored entirely


def test_without_threshold_majority_decides():
    cfg = HeuristicConfig(threshold=0.0)
    decision = decide(ens(0.3), vec(0.6), ABSENT, cfg)
    assert decision.label is Label.REAL
    assert decision.decided_by is DecidedBy.USERNAME_RULE


def test_tied_vector_falls_through():
    decision = decide(ens(0.2), vec(0.5), ABSENT, HeuristicConfig(threshold=0.0))
    assert decision.decided_by is DecidedBy.ENSEMBLE
    assert decision.label is Label.FAKE


def test_inconclusive_username_falls_to_domain():
    decision = decide(ens(0.2), vec(0.6), vec(0.95))
    assert decision.decided_by is DecidedBy.DOMAIN_RULE
    assert decision.label is Label.REAL


def test_ensemble_fallback_uses_strict_comparison():
    assert decide(ens(0.500001), ABSENT, ABSENT).label is Label.REAL
    assert decide(ens(0.5), ABSENT, ABSENT).label is Label.FAKE
    assert decide(ens(0.499999), ABSENT, ABSENT).label is Label.FAKE


def test_threshold_one_disables_rules():
    cfg = HeuristicConfig(threshold=1.0)
    decision = decide(ens(0.9), vec(0.0), vec(1.0), cfg)
    assert decision.decided_by is DecidedBy.ENSEMBLE
    assert decision.label is Label.REAL


def test_decide_deterministic():
    args = (ens(0.77), vec(0.9), vec(0.2))
    assert decide(*args) == decide(*args)


def test_config_validation():
    with pytest.raises(ValueError):
        HeuristicConfig(threshold=1.5)
    with pytest.raises(ValueError):
        HeuristicConfig(priority=(USERNAME, USERNAME))


GRID = (0.0, 0.13, 0.5, 0.87, 0.88, 0.89, 1.0)


def _count_rule_decisions(threshold):
    count = 0
    for u_real, d_real, e_real in itertools.product(GRID, repeat=3):
        for u_present, d_present in itertools.product((True, False), repeat=2):
            username_vec = vec(u_real) if u_present else ABSENT
            domain_vec = vec(d_real) if d_present else ABSENT
            cfg = HeuristicConfig(threshold=threshold)
            decision = decide(ens(e_real), username_vec, domain_vec, cfg)
            if decision.decided_by is not DecidedBy.ENSEMBLE:
                count += 1
    return count


def test_threshold_monotonicity():
    # Raising the threshold can only shrink the set of rule decisions.
    counts = [_count_rule_decisions(t) for t in (0.0, 0.5, 0.87, 0.88, 0.95, 1.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0  # strict > at 1.0: nothing fires


def _single_model_matrix(dataset, p_real_by_id):
    vectors = [
        PredictionVector(item.id, p_real_by_id[item.id], 1.0 - p_real_by_id[item.id], "m")
        for item in dataset
    ]
    return matrix_from_vectors({"m": vectors})


def test_batch_all_real_domain_dominates_random_ensemble():
    rng = random.Random(11)
    dataset = tuple(
        NewsItem(i, f"whatever https://alwaysreal.org/{i}", Label.REAL) for i in range(30)
    )
    table = build_table(dataset, DOMAIN)
    matrix = _single_model_matrix(dataset, {i: rng.random() for i in range(30)})
    decisions = decide_batch(dataset, matrix, AttributeStatsTable(USERNAME, {}), table)
    assert all(d.label is Label.REAL for d in decisions)
    assert all(d.decided_by is DecidedBy.DOMAIN_RULE for d in decisions)


def test_batch_no_attributes_equals_soft_vote():
    rng = random.Random(5)
    dataset = tuple(
        NewsItem(i, "plain text only", Label.REAL if i % 2 else Label.FAKE)
        for i in range(40)
    )
    matrix = _single_model_matrix(dataset, {i: rng.random() for i in range(40)})
    empty_u = AttributeStatsTable(USERNAME, {})
    empty_d = AttributeStatsTable(DOMAIN, {})
    decisions = decide_batch(dataset, matrix, empty_u, empty_d)
    soft = vote_all(matrix)
    assert [d.label for d in decisions] == [r.label for r in soft]
    assert all(d.decided_by is DecidedBy.ENSEMBLE for d in decisions)


def test_batch_planted_fake_handle_flips_exactly_its_items():
    # Training plants one fake-only handle; at inference, exactly the
    # items carrying it flip relative to the ensemble-only labels.
    train_items = tuple(
        NewsItem(i, "story by @shadyhandle", Label.FAKE) for i in range(5)
    ) + (NewsItem(5, "calm text", Label.REAL),)
    username_table = build_table(train_items, USERNAME)
    assert username_table.entries["shadyhandle"] == AttrCounts(0, 5)

    eval_items = tuple(
        [
            NewsItem(10, "quiet report", Label.REAL),
            NewsItem(11, "from @shadyhandle today", Label.FAKE),
            NewsItem(12, "another plain one", Label.REAL),
            NewsItem(13, "@shadyhandle strikes again", Label.FAKE),
            NewsItem(14, "@unknownperson speaks", Label.REAL),
            NewsItem(15, "nothing here", Label.FAKE),
        ]
    )
    # ensemble believes everything is real
    matrix = _single_model_matrix(eval_items, {i: 0.9 for i in (10, 11, 12, 13, 14, 15)})
    decisions = decide_batch(
        eval_items, matrix, username_table, AttributeStatsTable(DOMAIN, {})
    )
    by_id = {d.item_id: d for d in decisions}
    assert by_id[11].label is Label.FAKE and by_id[11].decided_by is DecidedBy.USERNAME_RULE
    assert by_id[13].label is Label.FAKE and by_id[13].decided_by is DecidedBy.USERNAME_RULE
    for item_id in (10, 12, 14, 15):
        assert by_id[item_id].label is Label.REAL
        assert by_id[item_id].decided_by is DecidedBy.ENSEMBLE


def test_batch_output_ordered_by_id():
    corpus = make_corpus(25, seed=3)
    shuffled = corpus[::-1]
    matrix = _single_model_matrix(corpus, {i: 0.4 for i in range(25)})
    table_u = build_table(corpus, USERNAME)
    table_d = build_table(corpus, DOMAIN)
    decisions = decide_batch(shuffled, matrix, table_u, table_d)
    assert [d.item_id for d in decisions] == list(range(25))


@pytest.mark.parametrize("result_ids", [(0, 1), (0, 1, 2, 3), (0, 1, 3), (2, 1, 0)])
def test_prepare_inputs_needs_results_for_exactly_the_dataset_ids(result_ids):
    dataset = tuple(NewsItem(i, "plain text", Label.REAL) for i in range(3))
    tables = AttributeStatsTable(USERNAME, {}), AttributeStatsTable(DOMAIN, {})
    inputs = prepare_inputs(dataset, [ens(0.7, item_id) for item_id in range(3)], *tables)
    assert [entry.ensemble.item_id for entry in inputs] == [0, 1, 2]
    assert all(entry.gold is Label.REAL for entry in inputs)
    with pytest.raises(IdSetMismatch):
        prepare_inputs(dataset, [ens(0.7, item_id) for item_id in result_ids], *tables)


@pytest.mark.parametrize("result_ids", [(0, 1), (0, 1, 2, 3), (0, 1, 3), (2, 1, 0)])
def test_decision_inputs_need_results_for_the_records_ids_in_order(result_ids):
    golds = (Label.REAL, None, Label.FAKE)
    records = [(item_id, vec(0.9), ABSENT, golds[item_id]) for item_id in range(3)]
    inputs = decision_inputs(records, [ens(0.7, item_id) for item_id in range(3)])
    assert [(entry.ensemble.item_id, entry.gold) for entry in inputs] == list(enumerate(golds))
    with pytest.raises(IdSetMismatch):
        decision_inputs(records, [ens(0.7, item_id) for item_id in result_ids])


def test_decisions_tsv_shape(tmp_path):
    decisions = [
        decide(ens(0.9, item_id=2), vec(0.95), ABSENT),
        decide(ens(0.2, item_id=1), ABSENT, ABSENT),
    ]
    path = tmp_path / "decisions.tsv"
    write_decisions_tsv(decisions, path, header_comment="config: h")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# config: h"
    assert lines[1] == "id\tlabel\tdecided_by\tp_real_ens\tp_real_user\tp_real_domain"
    assert lines[2].split("\t") == ["1", "fake", "ensemble", "0.2", "-", "-"]
    assert lines[3].split("\t") == ["2", "real", "username_rule", "0.9", "0.95", "-"]


def _repeating_posts(n_items: int, seed: int) -> list[NewsItem]:
    """Posts whose handle and domain lists repeat, also reordered and with
    an entry twice, in shuffled id order; some handles and domains are in
    no table."""
    rng = random.Random(seed)
    handles = ["who", "cdc", "rumor", "unknown"]
    hosts = ["who.int", "cdc.gov", "hoax.biz", "nowhere.net"]
    items = []
    for item_id in rng.sample(range(1, 10 * n_items), n_items):
        words = [f"@{rng.choice(handles)}" for _ in range(rng.randint(0, 3))]
        words += [f"https://{rng.choice(hosts)}/{item_id}" for _ in range(rng.randint(0, 2))]
        rng.shuffle(words)
        items.append(NewsItem(item_id, " ".join(["post", *words]), rng.choice([Label.REAL, Label.FAKE])))
    return items


def _repeating_tables(seed: int) -> list[AttributeStatsTable]:
    """Seeded counts for three of _repeating_posts' four handles and hosts."""
    rng = random.Random(seed)
    known = ((USERNAME, ("who", "cdc", "rumor")), (DOMAIN, ("who.int", "cdc.gov", "hoax.biz")))
    return [
        AttributeStatsTable(kind, {name: AttrCounts(rng.randint(0, 9), rng.randint(1, 9)) for name in names})
        for kind, names in known
    ]


def test_item_records_equal_one_vector_per_post():
    """The oracle: every post's own tweet_attr_vector calls, sorted by id.
    Two calls over the same posts with other tables each read their own."""
    items = _repeating_posts(400, seed=3)
    for seed in (1, 2):
        table_u, table_d = _repeating_tables(seed)
        oracle = []
        for item in items:
            attrs = extract_attributes(item.text)
            oracle.append((item.id, tweet_attr_vector(attrs.usernames, table_u),
                           tweet_attr_vector(attrs.domains, table_d), item.label))
        assert item_records(items, table_u, table_d) == sorted(oracle, key=itemgetter(0))


def test_posts_with_equal_attribute_tuples_share_one_vector(monkeypatch):
    """One tweet_attr_vector call per distinct handle tuple and per distinct
    domain tuple, order and repeats included, and every post with that
    tuple holds the same vector."""
    calls = []

    def counted(attrs, table):
        calls.append((table.kind, attrs))
        return tweet_attr_vector(attrs, table)

    monkeypatch.setattr(heuristic, "tweet_attr_vector", counted)
    items = _repeating_posts(400, seed=3)
    records = item_records(items, *_repeating_tables(1))
    shared = {}
    for item, (_, username_vec, domain_vec, _) in zip(sorted(items, key=lambda item: item.id), records):
        attrs = extract_attributes(item.text)
        assert shared.setdefault((USERNAME, attrs.usernames), username_vec) is username_vec
        assert shared.setdefault((DOMAIN, attrs.domains), domain_vec) is domain_vec
    assert sorted(calls, key=repr) == sorted(shared, key=repr)
    assert {("cdc", "who"), ("who", "cdc"), ("who", "who")} <= {attrs for _, attrs in shared}
    assert len(shared) < len(items) / 4
