"""Malformed input through `cli.main`: every reader ends in exit 1 or 2
with an error that names the file and the line, never in exit 3."""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_dataset_tsv
from veracity.cli import main
from veracity.corpus import iter_dataset, load_dataset, save_dataset
from veracity.errors import DataError

ROWS = [
    (1, "update @icmr via https://news.sky/a", "real"),
    (2, "@hoax claims https://thespoof.com/x", "fake"),
    (3, "plain words only", "real"),
]


def _write_predictions(path, rows):
    lines = ["id\tp_real\tp_fake"] + [f"{i}\t{r}\t{f}" for i, r, f in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_inputs(tmp_path: Path) -> Path:
    """A valid input of every kind, each with at least two lines."""
    write_dataset_tsv(tmp_path / "train.tsv", ROWS)
    (tmp_path / "cache.tsv").write_text(
        "http://t.co/a\thttps://news.sky/a\nhttp://t.co/b\thttps://thespoof.com/b\n",
        encoding="utf-8",
    )
    assert main(["stats", "--train", str(tmp_path / "train.tsv"), "--out-dir", str(tmp_path)]) == 0
    assert main(["train-baseline", "--train", str(tmp_path / "train.tsv"),
                 "--out", str(tmp_path / "model.json")]) == 0
    _write_predictions(tmp_path / "m.tsv", [(1, 0.6, 0.4), (2, 0.3, 0.7), (3, 0.8, 0.2)])
    (tmp_path / "pred.tsv").write_text("id\tlabel\n1\treal\n2\tfake\n3\treal\n", encoding="utf-8")
    (tmp_path / "run.ini").write_text(
        f"[data]\ntrain = {tmp_path / 'train.tsv'}\ntest = {tmp_path / 'train.tsv'}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    return tmp_path


@pytest.fixture
def inputs(tmp_path):
    return _write_inputs(tmp_path)


def _argv(name: str, d: Path) -> list[str]:
    """A command that reads the input named by the case."""
    postprocess = [
        "postprocess", "--data", str(d / "train.tsv"), "--predictions", str(d / "m.tsv"),
        "--username-table", str(d / "username_stats.tsv"),
        "--domain-table", str(d / "domain_stats.tsv"), "--out", str(d / "d.tsv"),
    ]
    return {
        "dataset": ["stats", "--train", str(d / "train.tsv"), "--out-dir", str(d / "o")],
        "predictions": ["ensemble", "--predictions", str(d / "m.tsv"), "--out", str(d / "e.tsv")],
        "table": postprocess,
        "cache": ["stats", "--train", str(d / "train.tsv"), "--cache", str(d / "cache.tsv"),
                  "--out-dir", str(d / "o")],
        "config": ["pipeline", "--config", str(d / "run.ini")],
        "evaluate --pred": ["evaluate", "--gold", str(d / "train.tsv"), "--pred", str(d / "pred.tsv")],
        "model": ["predict", "--model", str(d / "model.json"), "--data", str(d / "train.tsv"),
                  "--out", str(d / "p.tsv")],
    }[name]


READERS = {
    "dataset": "train.tsv",
    "predictions": "m.tsv",
    "table": "username_stats.tsv",
    "cache": "cache.tsv",
    "config": "run.ini",
    "evaluate --pred": "pred.tsv",
    "model": "model.json",
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_undecodable_byte_names_file_and_line(inputs, capsys, reader):
    name = READERS[reader]
    assert main(_argv(reader, inputs)) == 0
    capsys.readouterr()
    path = inputs / name
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n" + rest[:1] + b"\xff" + rest[1:])
    assert main(_argv(reader, inputs)) == 2
    err = capsys.readouterr().err
    assert f"in {name} (line 2)" in err
    assert "not UTF-8" in err


@pytest.mark.parametrize("reader", sorted(READERS))
def test_crlf_and_byte_order_mark_read_like_plain_lines(inputs, reader):
    path = inputs / READERS[reader]
    plain = path.read_bytes()
    path.write_bytes(b"\xef\xbb\xbf" + plain.replace(b"\n", b"\r\n"))
    assert main(_argv(reader, inputs)) == 0


@pytest.mark.parametrize("command", ["stats", "predict"])
def test_oversized_field_names_file_and_line(inputs, capsys, command):
    big = inputs / "big.tsv"
    write_dataset_tsv(big, ROWS[:2] + [(3, "x" * 200_000, "real")])
    argv = {
        "stats": ["stats", "--train", str(big), "--out-dir", str(inputs / "o")],
        "predict": ["predict", "--model", str(inputs / "model.json"), "--data", str(big),
                    "--out", str(inputs / "p.tsv")],
    }[command]
    assert main(["train-baseline", "--train", str(inputs / "train.tsv"),
                 "--out", str(inputs / "model.json")]) == 0
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "in big.tsv (line 4)" in err
    assert "field larger than field limit" in err


BAD_MODELS = {
    "alpha 0": lambda model: model.update(smoothing_alpha=0),
    "alpha NaN": lambda model: model.update(smoothing_alpha=float("nan")),
    "alpha Infinity": lambda model: model.update(smoothing_alpha=float("inf")),
    "negative token count": lambda model: model["token_counts"]["real"].update(icmr=-1),
    "negative document count": lambda model: model["class_doc_counts"].update(real=-1),
    "token counts a list": lambda model: model.update(token_counts=[]),
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_bad_model_values_name_the_file(inputs, capsys, case):
    path = inputs / "model.json"
    model = json.loads(path.read_text(encoding="utf-8"))
    BAD_MODELS[case](model)
    path.write_text(json.dumps(model), encoding="utf-8")
    assert main(_argv("model", inputs)) == 2
    assert "bad record in model.json: not a saved model" in capsys.readouterr().err


LOCATED = {
    # case: (file name, content, command reading it, expected error text)
    "BadLabel in a dataset": (
        "lab.tsv", "id\ttweet\tlabel\n1\ta\treal\n2\tb\tmaybe\n", "gold",
        "unknown label 'maybe' for item 2 in lab.tsv (line 3)",
    ),
    "BadLabel in evaluate --pred": (
        "pred.tsv", "# config: x\nid\tlabel\n1\treal\n2\tmaybe\n3\treal\n", "pred",
        "unknown label 'maybe' for item 2 in pred.tsv (line 4)",
    ),
    "DuplicateId in a dataset": (
        "dup.tsv", "id\ttweet\tlabel\n1\ta\treal\n2\tb\tfake\n1\tc\treal\n", "gold",
        "duplicate item id 1 in dup.tsv (line 4)",
    ),
    "DuplicateId in evaluate --pred": (
        "pred.tsv", "id\tlabel\n1\treal\n2\tfake\n3\treal\n2\treal\n", "pred",
        "duplicate item id 2 in pred.tsv (line 5)",
    ),
    "DuplicateId in a prediction file": (
        "m.tsv", "# config: x\nid\tp_real\tp_fake\n1\t0.5\t0.5\n1\t0.5\t0.5\n", "models",
        "duplicate item id 1 in m.tsv (line 4)",
    ),
    "EmptyText": (
        "empty.tsv", 'id\ttweet\tlabel\n1\t"two\nlines"\treal\n7\t   \tfake\n', "gold",
        "item 7 has empty text in empty.tsv (line 4)",
    ),
    "BadProbabilities": (
        "m.tsv", "id\tp_real\tp_fake\n1\t0.5\t0.5\n2\t0.5\t0.3\n", "models",
        "model 'm', item 2: probabilities sum to 0.8, outside [0.99, 1.01] in m.tsv (line 3)",
    ),
}

# an id is ASCII digits, once stripped, in every reader: int() would take
# "1_0" as 10, "+7" as 7 and "٣" as 3
_ID_READERS = {  # reader: (file name, text whose line 3 holds the id, role)
    "dataset": ("ids.tsv", "id\ttweet\tlabel\n1\ta\treal\n{}\tb\tfake\n", "gold"),
    "evaluate --pred": ("pred.tsv", "id\tlabel\n1\treal\n{}\tfake\n", "pred"),
    "prediction file": ("m.tsv", "id\tp_real\tp_fake\n1\t0.5\t0.5\n{}\t0.5\t0.5\n", "models"),
}
_BAD_IDS = {
    "1_0": "id '1_0' is not an integer",
    "+7": "id '+7' is not an integer",
    "\u0663": "id '\u0663' is not an integer",
    "-3": "id -3 is negative",
    "1" * 5000: f"id '{'1' * 5000}' is not an integer",  # past int()'s digit limit
}
LOCATED.update({
    f"id {cell:.8} in {reader}": (name, text.format(cell), role, f"bad record in {name} (line 3): {detail}")
    for reader, (name, text, role) in _ID_READERS.items()
    for cell, detail in _BAD_IDS.items()
})


@pytest.mark.parametrize("case", sorted(LOCATED))
def test_data_errors_name_file_and_physical_line(inputs, capsys, case):
    name, content, role, expected = LOCATED[case]
    path = inputs / name
    path.write_text(content, encoding="utf-8")
    argv = {
        "gold": ["evaluate", "--gold", str(path), "--pred", str(inputs / "pred.tsv")],
        "pred": ["evaluate", "--gold", str(inputs / "train.tsv"), "--pred", str(path)],
        "models": ["ensemble", "--predictions", str(path), "--out", str(inputs / "e.tsv")],
    }[role]
    assert main(argv) == 2
    assert expected in capsys.readouterr().err


def test_header_decides_delimiter_and_labels(inputs):
    """predict and postprocess read a comma-separated copy of a split and
    write the rows they write for the tab-separated one."""
    tsv = inputs / "train.tsv"
    csv_copy = inputs / "train.csv"
    save_dataset(load_dataset(tsv), csv_copy, delimiter=",")
    assert csv_copy.read_text(encoding="utf-8").startswith("id,tweet,label\n")
    assert main(["train-baseline", "--train", str(tsv), "--out", str(inputs / "model.json")]) == 0
    for data, suffix in ((tsv, "tsv"), (csv_copy, "csv")):
        assert main(["predict", "--model", str(inputs / "model.json"), "--data", str(data),
                     "--out", str(inputs / f"p_{suffix}.tsv")]) == 0
        argv = _argv("table", inputs)
        argv[2], argv[-1] = str(data), str(inputs / f"d_{suffix}.tsv")
        assert main(argv) == 0
    for stem in ("p", "d"):
        tsv_rows = (inputs / f"{stem}_tsv.tsv").read_text(encoding="utf-8").splitlines()[1:]
        csv_rows = (inputs / f"{stem}_csv.tsv").read_text(encoding="utf-8").splitlines()[1:]
        assert tsv_rows == csv_rows


def test_labels_required_by_the_command(inputs, capsys):
    unlabeled = inputs / "unlabeled.csv"
    unlabeled.write_text("id,tweet\n1,a\n", encoding="utf-8")
    assert main(["stats", "--train", str(unlabeled), "--out-dir", str(inputs / "o")]) == 2
    assert "expected header ['id', 'tweet', 'label'] but found ['id', 'tweet']" in (
        capsys.readouterr().err
    )


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("model")
    write_dataset_tsv(root / "train.tsv", ROWS)
    assert main(["train-baseline", "--train", str(root / "train.tsv"),
                 "--out", str(root / "model.json")]) == 0
    return root / "model.json"


_FRAGMENTS = st.one_of(
    st.binary(max_size=6),
    st.sampled_from([b"1", b"2", b"-3", b"real", b"FAKE", b"maybe", b"", b" ", b'"', b'"a\nb"',
                     b"@icmr http://t.co/a", b"\xef\xbb\xbf", b"nan", b"\t", b","]),
)
# a row: well-formed id, text and label cells, or arbitrary ones and a stray cell
_ROWS = st.lists(
    st.one_of(
        st.tuples(
            st.integers(0, 30).map(lambda i: str(i).encode()),
            st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1, max_size=12)
            .map(str.encode),
            st.sampled_from([b"real", b"fake", b"Real"]),
            st.just([]),
        ),
        st.tuples(_FRAGMENTS, _FRAGMENTS, _FRAGMENTS, st.lists(_FRAGMENTS, max_size=1)),
    ),
    max_size=5,
)


@st.composite
def dataset_bytes(draw):
    """The bytes of a dataset file: either header, a byte-order mark or
    not, either line ending, and well-formed or arbitrary rows."""
    delimiter = draw(st.sampled_from(["\t", ","]))
    header = ["id", "tweet", "label"] if draw(st.booleans()) else ["id", "tweet"]
    bom = draw(st.booleans())
    sep, end = delimiter.encode(), draw(st.sampled_from(["\n", "\r\n"])).encode()
    data = (b"\xef\xbb\xbf" if bom else b"") + sep.join(c.encode() for c in header) + end
    for item_id, text, label, stray in draw(_ROWS):
        data += sep.join([item_id, text, label][: len(header)] + stray) + end
    return data


@settings(max_examples=40, deadline=None)
@given(data=dataset_bytes())
def test_any_dataset_bytes_end_in_exit_0_1_or_2(model_path, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.txt"
        path.write_bytes(data)
        assert main(["stats", "--train", str(path), "--out-dir", f"{tmp}/o"]) in (0, 1, 2)
        assert main(["predict", "--model", str(model_path), "--data", str(path),
                     "--out", f"{tmp}/p.tsv"]) in (0, 1, 2)
        try:
            dataset = load_dataset(path)
        except DataError:
            return
        for save_delimiter in ("\t", ","):
            copy = Path(tmp) / "copy.txt"
            save_dataset(dataset, copy, delimiter=save_delimiter)
            assert load_dataset(copy).items == dataset.items


def _items_or_error(read):
    try:
        return read()
    except DataError as exc:
        return type(exc), str(exc), exc.source, exc.line_no


@settings(max_examples=80, deadline=None)
@given(data=dataset_bytes(), has_labels=st.sampled_from([None, True, False]))
def test_streamed_dataset_matches_loaded_one(data, has_labels):
    """iter_dataset yields exactly load_dataset's items, or both raise the
    same error type and message at the same file and line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.txt"
        path.write_bytes(data)
        streamed = _items_or_error(lambda: tuple(iter_dataset(path, has_labels)))
        loaded = _items_or_error(lambda: load_dataset(path, has_labels).items)
    assert streamed == loaded


_CELLS = st.one_of(
    st.sampled_from([
        "1", "2", "3", "-1", "0", "-0", "0.4", "0.6", "2.5", "-0.5", "nan", "NaN", "inf", "-inf",
        "Infinity", "1e308", "-1e308", "1e309", "99999999999999999999", "real", "fake", "REAL",
        "maybe", "icmr", "news.sky", "http://t.co/a", "https://news.sky/a", "", " ", '"', "#",
    ]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n"), max_size=6),
)
# the header line each reader expects (a cache has none; its comment stands in)
_HEADERS = {
    "predictions": "id\tp_real\tp_fake",
    "table": "attribute\treal_count\tfake_count",
    "cache": "# short_url\texpanded_url",
    "evaluate --pred": "id\tlabel",
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("inputs"))


@settings(max_examples=80, deadline=None)
@given(
    reader=st.sampled_from(sorted(_HEADERS)),
    comment=st.booleans(),
    header=st.booleans(),
    bom=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    rows=st.lists(st.lists(_CELLS, max_size=5), max_size=5),  # short, long and empty rows
)
def test_any_reader_bytes_end_in_exit_0_1_or_2(
    valid_inputs, reader, comment, header, bom, newline, final_newline, rows
):
    """Prediction files, attribute tables, URL caches and evaluate --pred
    files holding NaN, inf, negative or huge numbers, rows short of or past
    the header, CRLF and a byte-order mark end in exit 0, 1 or 2."""
    lines = (["# config: x"] if comment else []) + ([_HEADERS[reader]] if header else [])
    lines += ["\t".join(row) for row in rows]
    text = ("\ufeff" if bom else "") + newline.join(lines) + (newline if final_newline else "")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(valid_inputs, tmp, dirs_exist_ok=True)
        (Path(tmp) / READERS[reader]).write_text(text, encoding="utf-8", newline="")
        assert main(_argv(reader, Path(tmp))) in (0, 1, 2)
