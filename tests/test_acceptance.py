"""Acceptance suite.

One test per criterion; each prints a [ACCEPTANCE] pass/fail line (run
pytest with -s or -v to see them). Every expected value here is either
computed by an independent oracle inside this module or verified against
the published per-attribute distribution figures.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from _synth import make_corpus, head, tail
from conftest import write_dataset_tsv
from veracity.attribute_stats import (
    AttrCounts,
    AttributeKind,
    AttrProbVector,
    build_table,
    cond_prob,
)
from veracity.baseline import PredictionVector, predict_dataset, train
from veracity.cli import main as cli_main
from veracity.config import RunConfig
from veracity.corpus import Label, load_dataset
from veracity.ensemble import hard_vote, matrix_from_vectors, soft_vote, vote_all
from veracity.evaluation import evaluate
from veracity.heuristic import DecidedBy, HeuristicConfig, decide, decide_batch
from veracity.preprocess import UrlExpansionCache, load_cache

R, F = Label.REAL, Label.FAKE


@contextmanager
def criterion(name: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"[ACCEPTANCE] {name}: PASS ({elapsed:.2f}s)")


# --------------------------------------------------------------------------
# shared metric oracle: every evaluation in this suite goes through here
# --------------------------------------------------------------------------

def _brute_force_metrics(gold, pred):
    n = len(gold)
    accuracy = sum(1 for g, p in zip(gold, pred) if g is p) / n
    totals = {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    for c in (R, F):
        tp = sum(1 for g, p in zip(gold, pred) if g is c and p is c)
        fp = sum(1 for g, p in zip(gold, pred) if g is not c and p is c)
        fn = sum(1 for g, p in zip(gold, pred) if g is c and p is not c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        weight = (tp + fn) / n
        totals["precision"] += precision * weight
        totals["recall"] += recall * weight
        totals["f1"] += f1 * weight
    return accuracy, totals["precision"], totals["recall"], totals["f1"]


def checked_evaluate(gold, pred):
    """evaluate() plus the metric-identity and brute-force assertions."""
    report = evaluate(gold, pred)
    accuracy, precision, recall, f1 = _brute_force_metrics(gold, pred)
    assert abs(report.accuracy - report.recall) <= 1e-12
    assert abs(report.accuracy - accuracy) <= 1e-12
    assert abs(report.precision - precision) <= 1e-12
    assert abs(report.recall - recall) <= 1e-12
    assert abs(report.f1 - f1) <= 1e-12
    return report


# --------------------------------------------------------------------------
# 1. conditional-probability goldens
# --------------------------------------------------------------------------

def test_conditional_probability_goldens():
    with criterion("conditional-probability goldens"):
        # Frequencies 103 and 162 determine their count splits uniquely:
        # enumerate every split and keep those matching the printed
        # probabilities at their printed precision.
        matches_103 = [
            r for r in range(104)
            if round(r / 103, 4) == 0.9903 and round((103 - r) / 103, 4) == 0.0097
        ]
        assert matches_103 == [102]
        matches_162 = [
            r for r in range(163)
            if round(r / 162, 3) == 0.963 and round((162 - r) / 162, 3) == 0.037
        ]
        assert matches_162 == [156]
        matches_6 = [
            r for r in range(7)
            if round(r / 6, 3) == 0.167 and round((6 - r) / 6, 3) == 0.833
        ]
        assert matches_6 == [1]

        goldens = [
            (AttrCounts(274, 0), (1.0, 0.0), None),
            (AttrCounts(0, 253), (0.0, 1.0), None),
            (AttrCounts(1, 5), (0.167, 0.833), 3),
            (AttrCounts(102, 1), (0.9903, 0.0097), 4),
            (AttrCounts(156, 6), (0.963, 0.037), 3),
        ]
        for counts, (expect_real, expect_fake), digits in goldens:
            p_real, p_fake = cond_prob(counts)
            if digits is None:
                assert (p_real, p_fake) == (expect_real, expect_fake)
            else:
                assert round(p_real, digits) == expect_real
                assert round(p_fake, digits) == expect_fake


# --------------------------------------------------------------------------
# 2. voting oracle
# --------------------------------------------------------------------------

def test_voting_oracle():
    with criterion("voting oracle (grids step 0.1, n in {1,2,3,5})"):
        grid_vectors = [
            PredictionVector(0, k / 10, (10 - k) / 10, "m") for k in range(11)
        ]
        for n in (1, 2, 3, 5):
            denominator = 10 * n
            for combo in itertools.product(range(11), repeat=n):
                row = [grid_vectors[k] for k in combo]
                total = sum(combo)

                soft = soft_vote(row)
                assert abs(soft.p_real - total / denominator) <= 1e-9
                assert abs(soft.p_fake - (denominator - total) / denominator) <= 1e-9
                margin = 2 * total - denominator
                if margin > 0:
                    assert soft.label is R
                elif margin < 0:
                    assert soft.label is F
                else:
                    # Exact rational ties land on float rounding noise, so
                    # the label must follow the documented rule applied to
                    # the probabilities soft_vote itself reports.
                    expected = R if soft.p_real >= soft.p_fake else F
                    assert soft.label is expected

                hard = hard_vote(row)
                votes_real = sum(1 for k in combo if k >= 5)
                assert (hard.votes_real, hard.votes_fake) == (votes_real, n - votes_real)
                assert hard.label is (R if 2 * votes_real >= n else F)
                assert soft.votes_real + soft.votes_fake == n

        # Tie policy on dyadic probabilities, where float sums are exact.
        half = PredictionVector(0, 0.5, 0.5, "m")
        quarter_up = PredictionVector(0, 0.75, 0.25, "m")
        quarter_down = PredictionVector(0, 0.25, 0.75, "m")
        assert soft_vote([half]).label is R
        assert soft_vote([quarter_up, quarter_down]).label is R
        assert hard_vote([quarter_up, quarter_down]).label is R


# --------------------------------------------------------------------------
# 3. Algorithm oracle: literal transcription of the decision chain
# --------------------------------------------------------------------------

def _chain_username_first(u, d, e_real, threshold, use_threshold):
    u_ok, u_real, u_fake = u
    d_ok, d_real, d_fake = d
    e_fake = 1.0 - e_real
    if u_ok and (not use_threshold or u_real > threshold) and u_real > u_fake:
        return R
    elif u_ok and (not use_threshold or u_fake > threshold) and u_real < u_fake:
        return F
    elif d_ok and (not use_threshold or d_real > threshold) and d_real > d_fake:
        return R
    elif d_ok and (not use_threshold or d_fake > threshold) and d_real < d_fake:
        return F
    elif e_real > e_fake:
        return R
    else:
        return F


def _chain_domain_first(u, d, e_real, threshold, use_threshold):
    u_ok, u_real, u_fake = u
    d_ok, d_real, d_fake = d
    e_fake = 1.0 - e_real
    if d_ok and (not use_threshold or d_real > threshold) and d_real > d_fake:
        return R
    elif d_ok and (not use_threshold or d_fake > threshold) and d_real < d_fake:
        return F
    elif u_ok and (not use_threshold or u_real > threshold) and u_real > u_fake:
        return R
    elif u_ok and (not use_threshold or u_fake > threshold) and u_real < u_fake:
        return F
    elif e_real > e_fake:
        return R
    else:
        return F


def _chain_username_only(u, d, e_real, threshold, use_threshold):
    u_ok, u_real, u_fake = u
    e_fake = 1.0 - e_real
    if u_ok and (not use_threshold or u_real > threshold) and u_real > u_fake:
        return R
    elif u_ok and (not use_threshold or u_fake > threshold) and u_real < u_fake:
        return F
    elif e_real > e_fake:
        return R
    else:
        return F


def _chain_domain_only(u, d, e_real, threshold, use_threshold):
    d_ok, d_real, d_fake = d
    e_fake = 1.0 - e_real
    if d_ok and (not use_threshold or d_real > threshold) and d_real > d_fake:
        return R
    elif d_ok and (not use_threshold or d_fake > threshold) and d_real < d_fake:
        return F
    elif e_real > e_fake:
        return R
    else:
        return F


_ORDERINGS = [
    ((AttributeKind.USERNAME, AttributeKind.DOMAIN), _chain_username_first),
    ((AttributeKind.DOMAIN, AttributeKind.USERNAME), _chain_domain_first),
    ((AttributeKind.USERNAME,), _chain_username_only),
    ((AttributeKind.DOMAIN,), _chain_domain_only),
]

_PROB_GRID = (0.0, 0.13, 0.5, 0.87, 0.88, 0.89, 1.0)


def test_decision_rule_oracle():
    with criterion("decision-rule oracle (literal chain transcription)"):
        from veracity.ensemble import EnsembleResult, VotingScheme

        cases = 0
        for u_real, d_real, e_real in itertools.product(_PROB_GRID, repeat=3):
            for u_present, d_present in itertools.product((True, False), repeat=2):
                u = (u_present, u_real, 1.0 - u_real)
                d = (d_present, d_real, 1.0 - d_real)
                username_vec = (
                    AttrProbVector(u_real, 1.0 - u_real, 1, True)
                    if u_present
                    else AttrProbVector.absent()
                )
                domain_vec = (
                    AttrProbVector(d_real, 1.0 - d_real, 1, True)
                    if d_present
                    else AttrProbVector.absent()
                )
                ens = EnsembleResult(
                    0, e_real, 1.0 - e_real, 0, 0,
                    R if e_real >= 0.5 else F, VotingScheme.SOFT,
                )
                for priority, chain in _ORDERINGS:
                    for use_threshold in (True, False):
                        cfg = HeuristicConfig(
                            threshold=0.88 if use_threshold else 0.0, priority=priority
                        )
                        expected = chain(u, d, e_real, 0.88, use_threshold)
                        got = decide(ens, username_vec, domain_vec, cfg)
                        assert got.label is expected, (
                            u, d, e_real, priority, use_threshold
                        )
                        cases += 1
        assert cases >= 10_000
        print(f"  decision oracle cases: {cases}")


# --------------------------------------------------------------------------
# 4. degenerate-equivalence suite
# --------------------------------------------------------------------------

def _single_model_setup(corpus, train_count):
    train_slice = head(corpus, train_count)
    model = train(train_slice)
    vectors = predict_dataset(model, corpus)
    matrix = matrix_from_vectors({model.model_name: vectors})
    return train_slice, matrix


def test_degenerate_equivalences():
    with criterion("degenerate equivalences (500-item corpus)"):
        # (a) no attributes anywhere: post-processing reduces to soft voting
        bare = make_corpus(500, seed=911, attribute_fraction=0.0)
        train_slice, matrix = _single_model_setup(bare, 251)
        username_table = build_table(train_slice, AttributeKind.USERNAME)
        domain_table = build_table(train_slice, AttributeKind.DOMAIN)
        assert len(username_table) == 0 and len(domain_table) == 0
        soft_results = vote_all(matrix)
        assert all(r.p_real != r.p_fake for r in soft_results)  # tie-free fixture
        decisions = decide_batch(bare, matrix, username_table, domain_table)
        assert [d.label for d in decisions] == [r.label for r in soft_results]
        assert all(d.decided_by is DecidedBy.ENSEMBLE for d in decisions)

        # (b) threshold 1.0 with strict > disables every attribute rule
        attributed = make_corpus(500, seed=912, attribute_fraction=0.6)
        train_slice, matrix = _single_model_setup(attributed, 251)
        username_table = build_table(train_slice, AttributeKind.USERNAME)
        domain_table = build_table(train_slice, AttributeKind.DOMAIN)
        assert len(username_table) > 0 and len(domain_table) > 0
        soft_results = vote_all(matrix)
        assert all(r.p_real != r.p_fake for r in soft_results)
        inert = decide_batch(
            attributed, matrix, username_table, domain_table,
            cfg=HeuristicConfig(threshold=1.0),
        )
        assert [d.label for d in inert] == [r.label for r in soft_results]
        assert all(d.decided_by is DecidedBy.ENSEMBLE for d in inert)
        # sanity: at the default threshold the rules are alive on this corpus
        active = decide_batch(attributed, matrix, username_table, domain_table)
        assert any(d.decided_by is not DecidedBy.ENSEMBLE for d in active)

        # (c) a single model's ensemble is that model's argmax
        for item_id in sorted(matrix.rows):
            vector = matrix.rows[item_id][0]
            expected = R if vector.p_real >= vector.p_fake else F
            assert soft_vote(matrix.rows[item_id]).label is expected


# --------------------------------------------------------------------------
# 5. end-to-end synthetic reproduction of the correction effect
# --------------------------------------------------------------------------

def test_end_to_end_attribute_corrections():
    with criterion("end-to-end synthetic corrections (1000 items)"):
        corpus = make_corpus(1000, seed=20260808, attribute_fraction=0.6)
        train_slice = head(corpus, 100)          # deliberately weak: 10%
        eval_slice = tail(corpus, 100)
        username_table = build_table(train_slice, AttributeKind.USERNAME)
        domain_table = build_table(train_slice, AttributeKind.DOMAIN)
        # all 10 planted handles and 10 planted domains were seen in training
        assert len(username_table) == 10
        assert len(domain_table) == 10
        assert all(
            cond_prob(counts) == (0.0, 1.0) for counts in username_table.entries.values()
        )
        assert all(
            cond_prob(counts) == (1.0, 0.0) for counts in domain_table.entries.values()
        )

        model = train(train_slice)
        vectors = predict_dataset(model, eval_slice)
        matrix = matrix_from_vectors({model.model_name: vectors})
        ensemble_results = vote_all(matrix)
        assert all(r.p_real != r.p_fake for r in ensemble_results)

        gold_by_id = {item.id: item.label for item in eval_slice}
        gold = [gold_by_id[r.item_id] for r in ensemble_results]
        pre = checked_evaluate(gold, [r.label for r in ensemble_results])

        decisions = decide_batch(eval_slice, matrix, username_table, domain_table)
        post = checked_evaluate(gold, [d.label for d in decisions])

        assert post.f1 - pre.f1 >= 0.02, (pre.f1, post.f1)
        flipped = [
            d for d, r in zip(decisions, ensemble_results) if d.label is not r.label
        ]
        assert flipped, "the weakened baseline must leave something to correct"
        assert all(d.decided_by is not DecidedBy.ENSEMBLE for d in flipped)
        print(
            f"  ensemble-only weighted F1 {pre.f1:.4f} ->"
            f" post-processed {post.f1:.4f} ({len(flipped)} corrections)"
        )


# --------------------------------------------------------------------------
# 6. metric identity
# --------------------------------------------------------------------------

def test_metric_identity():
    with criterion("metric identity (accuracy == weighted recall; 2x2 oracle)"):
        fixed_cases = [
            ([R], [R]), ([R], [F]), ([F], [R]),
            ([R, F], [R, F]), ([R, F], [F, R]),
            ([R, R, F, F], [R, F, F, F]),
            ([R] * 5, [R] * 5), ([F] * 5, [R] * 5),
        ]
        rng = random.Random(4242)
        for _ in range(300):
            size = rng.randrange(1, 60)
            gold = [R if rng.random() < rng.random() else F for _ in range(size)]
            pred = [g if rng.random() < 0.7 else g.other() for g in gold]
            fixed_cases.append((gold, pred))
        for gold, pred in fixed_cases:
            checked_evaluate(gold, pred)


# --------------------------------------------------------------------------
# 7. pipeline determinism
# --------------------------------------------------------------------------

def test_pipeline_determinism(tmp_path):
    with criterion("pipeline determinism (byte-identical reruns)"):
        corpus = make_corpus(160, seed=31)
        train_path = tmp_path / "train.tsv"
        test_path = tmp_path / "test.tsv"
        write_dataset_tsv(train_path, head(corpus, 80))
        write_dataset_tsv(test_path, tail(corpus, 80))
        cache_path = tmp_path / "cache.tsv"
        cache_path.write_text("# no entries\n", encoding="utf-8")
        cfg = RunConfig(
            train_path=train_path,
            test_path=test_path,
            cache_path=cache_path,
            output_dir=tmp_path / "out",
        )
        config_path = tmp_path / "run.ini"
        config_path.write_text(cfg.to_text(), encoding="utf-8")

        assert cli_main(["pipeline", "--config", str(config_path)]) == 0
        out_dir = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert first, "pipeline produced no artifacts"
        assert cli_main(["pipeline", "--config", str(config_path)]) == 0
        second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert first == second


# --------------------------------------------------------------------------
# 8. optional, data-gated: published corpus statistics
# --------------------------------------------------------------------------

_DATA_DIR = os.environ.get("VERACITY_CORPUS_DIR", "")


@pytest.mark.skipif(
    not _DATA_DIR or not Path(_DATA_DIR).is_dir(),
    reason="set VERACITY_CORPUS_DIR to the locally supplied corpus to enable",
)
def test_supplied_corpus_statistics():
    with criterion("supplied-corpus statistics (880 usernames / 210 domains)"):
        data_dir = Path(_DATA_DIR)
        data_files = sorted(
            p for p in list(data_dir.glob("*.tsv")) + list(data_dir.glob("*.csv"))
            if p.name != "cache.tsv"
        )
        assert data_files, f"no dataset files in {data_dir}"
        cache = (
            load_cache(data_dir / "cache.tsv")
            if (data_dir / "cache.tsv").is_file()
            else UrlExpansionCache()
        )
        from veracity.preprocess import extract_attributes

        usernames: set[str] = set()
        domains: set[str] = set()
        item_count = 0
        real_count = 0
        labeled_count = 0
        for path in data_files:
            dataset = load_dataset(path)
            item_count += len(dataset)
            if all(item.label is not None for item in dataset):
                labeled_count += len(dataset)
                real_count += sum(1 for item in dataset if item.label is R)
            for item in dataset:
                attrs = extract_attributes(item.text, cache)
                usernames.update(attrs.usernames)
                domains.update(attrs.domains)
        assert item_count == 10_700
        assert round(100 * real_count / labeled_count, 2) == 52.34
        assert len(usernames) == 880
        assert len(domains) == 210
