"""Corpus pipeline: segmentation, filtering, annotation extraction, packing,
vocabulary, stats."""

import json
import re

import numpy as np
import pytest

from lctx.corpus import (
    CaseDocument,
    CivilAnnotation,
    CriminalAnnotation,
    DocumentRejected,
    LabelTable,
    Ruleset,
    chinese_numeral,
    corpus_stats,
    extract_annotations,
    fact_long_enough,
    judgment_stats,
    pack_documents,
    penalty_months,
    process_corpus,
    read_jsonl,
    segment_case,
    write_jsonl,
)
from lctx.fixtures import synthetic_cases, to_chinese_numeral
from lctx.vocab import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    CharVocab,
    build_vocab,
    char_tokens,
    codepoints,
)
from oracles import ref_pack_documents, ref_transform, ref_vocab_tokens

RULES = Ruleset()


def make_case(fact_len=60, months_phrase="判处有期徒刑六个月"):
    fact = "事" * fact_len
    return (f"某市检察院指控被告人张某。经审理查明：{fact}。"
            f"本院认为，被告人张某的行为已构成盗窃罪，"
            f"依照《中华人民共和国刑法》第二百六十四条之规定。"
            f"判决如下：被告人张某犯盗窃罪，{months_phrase}。")


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def test_segment_populates_four_sections():
    doc = segment_case(make_case(), RULES, "criminal", "d1")
    assert "张某" in doc.parties
    assert doc.fact.startswith("：事")
    assert "盗窃罪" in doc.court_view
    assert "有期徒刑" in doc.judgment
    assert doc.flags == []


def test_segment_missing_judgment_rejected():
    text = "指控张某。经审理查明：" + "事" * 60 + "。本院认为行为已构成盗窃罪。"
    with pytest.raises(DocumentRejected) as exc:
        segment_case(text, RULES)
    assert exc.value.reason == "MISSING_SECTION:judgment"


def test_segment_missing_fact_rejected():
    with pytest.raises(DocumentRejected) as exc:
        segment_case("指控张某。判决如下：无罪。", RULES)
    assert exc.value.reason == "MISSING_SECTION:fact"


def test_segment_missing_court_view_flagged():
    text = "指控张某。经审理查明：" + "事" * 60 + "。判决如下：免予刑事处罚。"
    doc = segment_case(text, RULES)
    assert "missing:court_view" in doc.flags


def test_segment_empty_document_rejected():
    with pytest.raises(DocumentRejected):
        segment_case("   ", RULES)


# ---------------------------------------------------------------------------
# fact-length filter (strict >)
# ---------------------------------------------------------------------------


def test_filter_boundary_50_dropped_51_kept():
    def doc_with(n):
        return segment_case(make_case(fact_len=n), RULES)

    # fact is "：" + n chars + "。" => subtract the two punctuation tokens
    d50 = doc_with(48)
    d51 = doc_with(49)
    assert len(char_tokens(d50.fact)) == 50
    assert len(char_tokens(d51.fact)) == 51
    assert not fact_long_enough(d50)
    assert fact_long_enough(d51)


# ---------------------------------------------------------------------------
# annotation extraction
# ---------------------------------------------------------------------------


def test_chinese_numerals():
    cases = {"六": 6, "十": 10, "十五": 15, "二十": 20, "两": 2,
             "一百二十": 120, "一百零五": 105, "3": 3, "180": 180}
    for text, value in cases.items():
        assert chinese_numeral(text) == value
    with pytest.raises(ValueError):
        chinese_numeral("甲")


def test_numeral_renderer_roundtrip():
    for n in list(range(0, 200)) + [999]:
        assert chinese_numeral(to_chinese_numeral(n)) == n


def test_penalty_six_months():
    assert penalty_months("判处有期徒刑六个月。", RULES) == 6


def test_penalty_years_plus_months():
    assert penalty_months("判处有期徒刑二年三个月。", RULES) == 27


def test_penalty_detention_and_exemption():
    assert penalty_months("判处拘役三个月。", RULES) == 3
    assert penalty_months("免予刑事处罚。", RULES) == 0


def test_penalty_capped_at_180():
    assert penalty_months("判处有期徒刑二十年。", RULES) == 180


def test_penalty_life_sentence_rejected():
    with pytest.raises(DocumentRejected):
        penalty_months("判处无期徒刑。", RULES)


def test_extract_criminal_annotation():
    doc = segment_case(make_case(), RULES, "criminal", "d1")
    charges, laws, causes = LabelTable(), LabelTable(), LabelTable()
    ann = extract_annotations(doc, RULES, charges, laws, causes)
    assert isinstance(ann, CriminalAnnotation)
    assert charges.labels == ["盗窃罪"]
    assert ann.charges == {0}
    assert laws.labels == ["刑法第二百六十四条"]
    assert ann.penalty_months == 6


def test_extract_civil_annotation():
    text = ("原告李某与被告王某。经审理查明：" + "事" * 60 + "。"
            "本院认为，本案系民间借贷纠纷，依照《中华人民共和国民法典》第六百七十五条之规定。"
            "判决如下：被告王某偿还借款。")
    doc = segment_case(text, RULES, "civil", "d2")
    charges, laws, causes = LabelTable(), LabelTable(), LabelTable()
    ann = extract_annotations(doc, RULES, charges, laws, causes)
    assert isinstance(ann, CivilAnnotation)
    assert causes.labels == ["民间借贷纠纷"]
    assert ann.cause_of_action == 0
    assert len(ann.laws) == 1


def test_extract_no_charge_rejected():
    text = ("指控张某。经审理查明：" + "事" * 60 + "。本院认为事实不清。"
            "判决如下：证据不足。")
    doc = segment_case(text, RULES, "criminal", "d3")
    with pytest.raises(DocumentRejected) as exc:
        extract_annotations(doc, RULES, LabelTable(), LabelTable(), LabelTable())
    assert exc.value.reason == "NO_ANNOTATION:charge"


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def test_pack_two_docs_one_block():
    blocks = pack_documents([list(range(10, 20)), list(range(30, 40))], 32)
    assert blocks.shape == (1, 32)
    expect = list(range(10, 20)) + [SEP_ID] + list(range(30, 40)) + [SEP_ID] + [PAD_ID] * 10
    np.testing.assert_array_equal(blocks[0], expect)


def test_pack_long_doc_splits():
    blocks = pack_documents([list(range(100, 170))], 32)
    assert blocks.shape == (3, 32)
    joined = blocks.reshape(-1)
    np.testing.assert_array_equal(joined[:70], np.arange(100, 170))
    assert joined[70] == SEP_ID
    assert (joined[71:] == PAD_ID).all()


def test_pack_conserves_tokens():
    rng = np.random.default_rng(0)
    streams = [list(rng.integers(5, 50, size=rng.integers(1, 40))) for _ in range(7)]
    blocks = pack_documents(streams, 16)
    non_pad = int((blocks != PAD_ID).sum())
    assert non_pad == sum(len(s) for s in streams) + len(streams)


def test_pack_never_interleaves():
    streams = [[7] * 5, [9] * 11]
    flat = pack_documents(streams, 8).reshape(-1)
    flat = flat[flat != PAD_ID]
    sevens = np.flatnonzero(flat == 7)
    nines = np.flatnonzero(flat == 9)
    assert sevens.max() < nines.min()


def test_pack_empty():
    assert pack_documents([], 16).shape == (0, 16)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def test_vocab_frequency_order():
    vocab = build_vocab(["aab"])
    assert vocab.transform("a")[0] < vocab.transform("b")[0]


def test_vocab_special_ids():
    vocab = build_vocab(["xy"])
    assert vocab.tokens_[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
    assert (PAD_ID, CLS_ID, SEP_ID) == (0, 2, 3)


def test_vocab_tie_break_by_codepoint():
    vocab = build_vocab(["ba"])  # equal counts -> codepoint order
    assert vocab.transform("a")[0] < vocab.transform("b")[0]


def test_vocab_deterministic_file(tmp_path):
    corpus = [row["text"] for row in synthetic_cases(4, 4, seed=3)]
    p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    build_vocab(corpus).save(p1)
    build_vocab(list(corpus)).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_vocab_unknown_maps_to_unk():
    vocab = build_vocab(["abc"])
    assert vocab.transform("z").tolist() == [1]


def test_vocab_roundtrip(tmp_path):
    vocab = build_vocab(["法院判决"])
    vocab.save(tmp_path / "v.txt")
    again = CharVocab.load(tmp_path / "v.txt")
    assert again.tokens_ == vocab.tokens_


@pytest.mark.parametrize("body", ["甲\n乙\n甲\n",                                # no special tokens
                                  "[UNK]\n[PAD]\n[CLS]\n[SEP]\n[MASK]\n甲\n",  # out of order
                                  "[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\n甲\n乙\n甲\n"])
def test_vocab_load_rejects_malformed_file(tmp_path, body):
    path = tmp_path / "bad_vocab.txt"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ValueError, match="bad_vocab.txt"):
        CharVocab.load(path)


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_process_corpus_on_fixture_cases():
    result = process_corpus(synthetic_cases(6, 6, seed=1), RULES)
    assert len(result.criminal_examples) == 6
    assert len(result.civil_examples) == 6
    assert result.rejections == {}
    for ex in result.criminal_examples:
        assert set(ex) == {"id", "fact", "charges", "laws", "penalty_months"}
        assert all(0 <= c < len(result.charge_table) for c in ex["charges"])
        assert 0 <= ex["penalty_months"] <= 180
    for ex in result.civil_examples:
        assert set(ex) == {"id", "fact", "cause", "laws"}
        assert 0 <= ex["cause"] < len(result.cause_table)


def test_process_corpus_idempotent():
    rows = synthetic_cases(5, 5, seed=2)
    a = process_corpus(rows, RULES)
    b = process_corpus(rows, RULES)
    assert a.criminal_examples == b.criminal_examples
    assert a.civil_examples == b.civil_examples
    assert a.charge_table.labels == b.charge_table.labels


def test_process_corpus_counts_rejections():
    rows = [{"id": "bad1", "kind": "criminal", "text": "没有任何标记的文本"},
            {"id": "bad2", "kind": "martian", "text": "x"}]
    result = process_corpus(rows, RULES)
    assert result.rejections["MISSING_SECTION:fact"] == 1
    assert result.rejections["UNKNOWN_KIND:martian"] == 1


def test_stats_schemas():
    result = process_corpus(synthetic_cases(4, 3, seed=4), RULES)
    pre = corpus_stats(result.documents)
    assert [row["kind"] for row in pre] == ["criminal", "civil"]
    assert set(pre[0]) == {"kind", "docs", "avg_len", "size_bytes"}
    assert pre[0]["docs"] == 4 and pre[1]["docs"] == 3

    judg = judgment_stats(result.criminal_examples, result.civil_examples,
                          result.charge_table, result.law_table, result.cause_table)
    assert set(judg[0]) == {"kind", "cases", "avg_len", "n_labels", "n_laws", "prison"}
    assert judg[0]["prison"] and "-" in judg[0]["prison"]
    assert judg[1]["prison"] == ""


def test_jsonl_roundtrip_and_error_line(tmp_path):
    rows = [{"id": "a", "kind": "criminal", "text": "正文"}]
    path = tmp_path / "cases.jsonl"
    write_jsonl(path, rows)
    assert read_jsonl(path) == rows
    path.write_text('{"ok": 1}\n{broken\n', encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        read_jsonl(path)


def test_ruleset_roundtrip(tmp_path):
    rules = Ruleset()
    rules.save(tmp_path / "rules.json")
    loaded = Ruleset.load(tmp_path / "rules.json")
    assert loaded.rules == rules.rules


def test_ruleset_loaded_pattern_is_the_one_applied(tmp_path):
    (tmp_path / "rules.json").write_text(
        json.dumps({"charge_pattern": "判处([^罪]{1,20}罪)"}, ensure_ascii=False),
        encoding="utf-8")
    loaded = Ruleset.load(tmp_path / "rules.json")
    assert loaded["fact_markers"] == RULES["fact_markers"]   # merged over the defaults
    assert loaded.patterns["charge_pattern"].pattern == "判处([^罪]{1,20}罪)"
    doc = CaseDocument("c", "criminal", "", "", "依照《中华人民共和国刑法》第二百六十四条",
                       "被告人犯甲罪，判处乙罪，有期徒刑六个月")
    charges = LabelTable()
    extract_annotations(doc, loaded, charges, LabelTable(), LabelTable())
    assert charges.labels == ["乙罪"]
    extract_annotations(doc, RULES, charges, LabelTable(), LabelTable())
    assert charges.labels == ["乙罪", "甲罪"]


def test_ruleset_pattern_that_does_not_compile_is_named():
    with pytest.raises(ValueError, match="cause_pattern"):
        Ruleset({**RULES.rules, "cause_pattern": "系(纠纷"})


def test_label_table_roundtrips_a_lone_surrogate(tmp_path):
    table = LabelTable(["盗窃罪", "诈\ud800骗罪", "\udfff", "a\\b"])
    table.save(tmp_path / "labels.txt")
    (tmp_path / "labels.txt").read_bytes().decode("utf-8")     # valid UTF-8
    assert LabelTable.load(tmp_path / "labels.txt").labels == table.labels


@pytest.mark.parametrize("labels", [[], ["盗\u2028窃罪", "抢\x1c劫罪", "诈\u0085骗罪"],
                                    ["a\rb罪", "c\r\rd罪", ""]],
                         ids=["empty", "line-separators", "carriage-returns"])
def test_label_table_roundtrips_what_splitlines_would_break(tmp_path, labels):
    LabelTable(labels).save(tmp_path / "labels.txt")
    assert LabelTable.load(tmp_path / "labels.txt").labels == labels


def test_label_table_rejects_a_line_feed_by_name(tmp_path):
    with pytest.raises(ValueError, match=re.escape(repr("盗\n窃罪"))):
        LabelTable(["抢劫罪", "盗\n窃罪"]).save(tmp_path / "labels.txt")
    assert not (tmp_path / "labels.txt").exists()


# ---------------------------------------------------------------------------
# the numpy pipeline against the per-character reference
# ---------------------------------------------------------------------------

# whitespace beyond ASCII (ideographic space, NBSP, NEL, the four information
# separators, line separator), astral-plane characters, and count ties
EDGE_TEXTS = [
    "法院\u3000判决\u00a0如下\u0085甲乙",
    "\x1c\x1d\x1e\x1fab\u2028c\td e\n\r\x0b\x0c",
    "\U00020000\U00020001 法\U00020000 \U0001F600",
    "ba",
    "zzyyx乙甲",
]


def test_codepoints_drop_exactly_the_isspace_characters():
    every = "".join(map(chr, range(0x110000)))  # surrogates included
    want = [cp for cp in range(0x110000) if not chr(cp).isspace()]
    got = codepoints(every)
    assert got.dtype == np.uint32
    assert np.array_equal(got, want)


def test_vocab_matches_the_per_character_reference():
    vocab = build_vocab(EDGE_TEXTS)
    tokens = ref_vocab_tokens(EDGE_TEXTS)
    assert vocab.tokens_ == tokens
    for text in EDGE_TEXTS + ["未见 字\U0001F601", ""]:
        ids = vocab.transform(text)
        assert ids.dtype == np.int64 and ids.ndim == 1
        assert ids.tolist() == ref_transform(tokens, text)


def test_vocab_of_the_empty_corpus_matches_the_reference():
    vocab = build_vocab([""])  # what preprocess fits when no document survives
    assert vocab.tokens_ == ref_vocab_tokens([""])
    assert vocab.transform("").tolist() == []
    assert vocab.transform("ab c").tolist() == [UNK_ID] * 3


def test_loaded_vocab_transforms_as_the_fitted_one(tmp_path):
    corpus = [row["text"] for row in synthetic_cases(4, 4, seed=5)] + EDGE_TEXTS
    fitted = build_vocab(corpus)
    fitted.save(tmp_path / "v.txt")
    loaded = CharVocab.load(tmp_path / "v.txt")
    assert loaded.tokens_ == fitted.tokens_
    for text in corpus + ["未见 字\U0001F601"]:
        want = fitted.transform(text)
        got = loaded.transform(text)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_pipeline_matches_the_reference_on_the_synthetic_corpus():
    texts = [row["text"] for row in synthetic_cases(6, 6, seed=2)]
    vocab = build_vocab(texts)
    tokens = ref_vocab_tokens(texts)
    assert vocab.tokens_ == tokens
    streams = [vocab.transform(t) for t in texts]
    assert [s.tolist() for s in streams] == [ref_transform(tokens, t) for t in texts]
    blocks = pack_documents(streams, 64)
    assert blocks.dtype == np.int64
    assert np.array_equal(blocks, ref_pack_documents(streams, 64))


@pytest.mark.parametrize("streams", [
    [list(range(10, 17))],                          # 7 tokens + SEP fill one block
    [list(range(10, 30))],                          # longer than two blocks
    [[5] * 6, [6] * 3],                             # first document ends one before a block end
    [[5] * 7, [], np.arange(20, 26), [7]],          # arrays, lists and an empty stream
    [[]],
    [],
])
def test_pack_matches_the_list_reference(streams):
    blocks = pack_documents(streams, 8)
    want = ref_pack_documents(streams, 8)
    assert blocks.dtype == np.int64 and blocks.shape == want.shape
    assert np.array_equal(blocks, want)


def test_surrogates_are_never_tokens():
    vocab = build_vocab(["甲\ud800乙\udfff甲"])
    assert vocab.tokens_[5:] == ["甲", "乙"]
    assert vocab.transform("\ud800甲\udc00").tolist() == [UNK_ID, 5, UNK_ID]


def test_failed_vocab_write_leaves_no_file(tmp_path):
    vocab = build_vocab(["甲"])
    vocab.tokens_.append("\ud800")  # cannot be encoded as UTF-8
    with pytest.raises(UnicodeEncodeError):
        vocab.save(tmp_path / "vocab.txt")
    assert list(tmp_path.iterdir()) == []
