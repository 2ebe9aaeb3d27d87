"""Case-document processing: four-part segmentation, fact-length filtering,
regex annotation extraction, packing into fixed-length pretraining blocks.

Section markers and annotation regexes are jurisdiction-specific, so they
live in a user-editable JSON ruleset; the defaults below match the synthetic
fixture corpus and common mainland court formatting.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import TEXT, check_fields, check_json_object, read_json, write_text
from .vocab import PAD_ID, SEP_ID, n_tokens

MIN_FACT_TOKENS = 50
PENALTY_CAP_MONTHS = 180


class DocumentRejected(Exception):
    """Raised when a raw case cannot enter the pipeline; .reason is a code
    such as MISSING_SECTION:fact or NO_ANNOTATION:charge."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class CaseDocument:
    id: str
    case_kind: str  # "criminal" | "civil"
    parties: str
    fact: str
    court_view: str
    judgment: str
    flags: list[str] = field(default_factory=list)

    def full_text(self) -> str:
        return self.parties + self.fact + self.court_view + self.judgment


@dataclass
class CriminalAnnotation:
    charges: set[int]
    laws: set[int]
    penalty_months: int


@dataclass
class CivilAnnotation:
    cause_of_action: int
    laws: set[int]


DEFAULT_RULES = {
    "fact_markers": ["经审理查明", "审理查明", "经查明"],
    "court_view_markers": ["本院认为"],
    "judgment_markers": ["判决如下", "裁定如下", "判决结果"],
    "charge_pattern": "犯([^罪、，,。]{1,20}罪)",
    "criminal_law_pattern": "《中华人民共和国刑法》第([零一二三四五六七八九十百两0-9]+)条",
    "civil_law_pattern": "《[^》]{1,30}》第([零一二三四五六七八九十百两0-9]+)条",
    "cause_pattern": "系([\\u4e00-\\u9fa5]{1,20}?纠纷)",
    "penalty_year_month_pattern":
        "(?:有期徒刑|拘役)(?:([零一二三四五六七八九十百两0-9]+)年)?(?:([零一二三四五六七八九十百两0-9]+)个月)?",
    "no_penalty_markers": ["免予刑事处罚", "单处罚金"],
}


@dataclass
class Ruleset:
    """Marker lists + annotation regexes, JSON-round-trippable.

    The regexes (the *_pattern keys) are compiled once, when the ruleset is
    made, into .patterns; a pattern that does not compile is a ValueError
    naming its key. save() writes the pattern strings.
    """

    rules: dict = field(default_factory=lambda: dict(DEFAULT_RULES))
    patterns: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.patterns = {}
        for key, pattern in self.rules.items():
            if key.endswith("_pattern"):
                try:
                    self.patterns[key] = re.compile(pattern)
                except (re.error, TypeError) as exc:
                    raise ValueError(f"rule {key!r}: not a regular expression ({exc})") from exc

    def __getitem__(self, key):
        return self.rules[key]

    def save(self, path) -> None:
        write_text(path, json.dumps(self.rules, ensure_ascii=False, indent=2))

    @classmethod
    def load(cls, path) -> "Ruleset":
        """DEFAULT_RULES updated by `path`'s: lists of strings (*_markers) and
        strings (*_pattern). A refusal names the file and the key."""
        rules = read_json(path)
        check_json_object(rules, {key: list[str] if key.endswith("_markers") else str
                                  for key in DEFAULT_RULES}, str(path))
        try:
            return cls({**DEFAULT_RULES, **rules})
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------


def _find_marker(text: str, markers, start: int = 0):
    best = None
    for m in markers:
        pos = text.find(m, start)
        if pos != -1 and (best is None or pos < best[0]):
            best = (pos, len(m))
    return best


def segment_case(raw_text: str, rules: Ruleset, case_kind: str = "criminal",
                 doc_id: str = "") -> CaseDocument:
    """Split a raw case into parties / fact / court view / judgment.

    Fact and judgment sections are required; a missing court view is flagged
    but tolerated.
    """
    if not raw_text or not raw_text.strip():
        raise DocumentRejected("EMPTY_DOCUMENT")
    fact_hit = _find_marker(raw_text, rules["fact_markers"])
    if fact_hit is None:
        raise DocumentRejected("MISSING_SECTION:fact")
    f_pos, f_len = fact_hit
    court_hit = _find_marker(raw_text, rules["court_view_markers"], f_pos + f_len)
    judg_hit = _find_marker(raw_text, rules["judgment_markers"],
                            (court_hit[0] + court_hit[1]) if court_hit else f_pos + f_len)
    if judg_hit is None:
        raise DocumentRejected("MISSING_SECTION:judgment")
    j_pos, j_len = judg_hit

    flags = []
    parties = raw_text[:f_pos]
    if not parties.strip():
        flags.append("empty:parties")
    if court_hit:
        c_pos, c_len = court_hit
        fact = raw_text[f_pos + f_len:c_pos]
        court_view = raw_text[c_pos + c_len:j_pos]
    else:
        fact = raw_text[f_pos + f_len:j_pos]
        court_view = ""
        flags.append("missing:court_view")
    judgment = raw_text[j_pos + j_len:]
    return CaseDocument(id=doc_id, case_kind=case_kind, parties=parties,
                        fact=fact, court_view=court_view, judgment=judgment,
                        flags=flags)


def fact_long_enough(doc: CaseDocument, min_tokens: int = MIN_FACT_TOKENS) -> bool:
    """The fact-length rule: the fact is strictly longer than min_tokens tokens."""
    return n_tokens(doc.fact) > min_tokens


# ---------------------------------------------------------------------------
# annotation extraction
# ---------------------------------------------------------------------------

_CN_DIGITS = {"零": 0, "一": 1, "二": 2, "两": 2, "三": 3, "四": 4,
              "五": 5, "六": 6, "七": 7, "八": 8, "九": 9}


def chinese_numeral(text: str) -> int:
    """Parse a Chinese (or ASCII) numeral below 1000, e.g. 六 -> 6, 一百二十 -> 120."""
    if text.isdigit():
        return int(text)
    total, num = 0, 0
    for ch in text:
        if ch in _CN_DIGITS:
            num = _CN_DIGITS[ch]
        elif ch == "十":
            total += (num or 1) * 10
            num = 0
        elif ch == "百":
            total += (num or 1) * 100
            num = 0
        else:
            raise ValueError(f"not a numeral: {text!r}")
    return total + num


class LabelTable:
    """Label-string <-> id table, first-seen order, one label per line on disk."""

    def __init__(self, labels=()):
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}

    def add(self, label: str) -> int:
        if label not in self.index:
            self.index[label] = len(self.labels)
            self.labels.append(label)
        return self.index[label]

    def __len__(self):
        return len(self.labels)

    def save(self, path) -> None:
        """Each label followed by "\n" in UTF-8, replacing `path` whole (an
        empty table is an empty file). A lone surrogate, which UTF-8 cannot
        hold, is written as its backslash-u escape, which load() turns back
        into the surrogate. A label holding "\n" is a ValueError naming it."""
        for label in self.labels:
            if "\n" in label:
                raise ValueError(f"label {label!r} holds a line feed")
        write_text(path, "".join(lab + "\n" for lab in self.labels), errors="backslashreplace")

    @classmethod
    def load(cls, path) -> "LabelTable":
        """The table save() wrote: the file is split at "\n" only, with no
        newline translation, so "\r", U+2028 and the other characters that
        str.splitlines() breaks at stay inside their label."""
        text = _SURROGATE_ESCAPE.sub(lambda m: chr(int(m.group(1), 16)),
                                     Path(path).read_bytes().decode("utf-8"))
        labels = text.split("\n")
        if labels[-1] == "":
            labels.pop()  # what follows the last line feed
        return cls(labels)


# what save() writes for a lone surrogate; a label holding this text
# literally reads back as the surrogate
_SURROGATE_ESCAPE = re.compile(r"\\u(d[89a-f][0-9a-f]{2})")


def penalty_months(judgment_text: str, rules: Ruleset) -> int:
    """Prison term in months from the judgment section, clamped to
    [0, PENALTY_CAP_MONTHS]. Terms the parser cannot ground (life sentences,
    absent sentences) reject the example."""
    for marker in rules["no_penalty_markers"]:
        if marker in judgment_text:
            return 0
    m = rules.patterns["penalty_year_month_pattern"].search(judgment_text)
    if m is None or (m.group(1) is None and m.group(2) is None):
        raise DocumentRejected("NO_ANNOTATION:penalty")
    years = chinese_numeral(m.group(1)) if m.group(1) else 0
    months = chinese_numeral(m.group(2)) if m.group(2) else 0
    return min(years * 12 + months, PENALTY_CAP_MONTHS)


def extract_annotations(doc: CaseDocument, rules: Ruleset,
                        charge_table: LabelTable, law_table: LabelTable,
                        cause_table: LabelTable):
    """Pull judgment labels out of the judgment section with the configured
    regexes; label ids accumulate into the shared tables."""
    if doc.case_kind == "criminal":
        charges = sorted(set(rules.patterns["charge_pattern"].findall(doc.judgment)))
        laws = sorted(set(rules.patterns["criminal_law_pattern"].findall(
            doc.court_view + doc.judgment)))
        if not charges:
            raise DocumentRejected("NO_ANNOTATION:charge")
        if not laws:
            raise DocumentRejected("NO_ANNOTATION:law")
        months = penalty_months(doc.judgment, rules)
        return CriminalAnnotation(
            charges={charge_table.add(c) for c in charges},
            laws={law_table.add(f"刑法第{x}条") for x in laws},
            penalty_months=months)
    if doc.case_kind == "civil":
        cause = rules.patterns["cause_pattern"].search(doc.court_view + doc.judgment)
        laws = sorted(set(rules.patterns["civil_law_pattern"].findall(
            doc.court_view + doc.judgment)))
        if cause is None:
            raise DocumentRejected("NO_ANNOTATION:cause")
        if not laws:
            raise DocumentRejected("NO_ANNOTATION:law")
        return CivilAnnotation(
            cause_of_action=cause_table.add(cause.group(1)),
            laws={law_table.add(f"民事法第{x}条") for x in laws})
    raise DocumentRejected(f"UNKNOWN_KIND:{doc.case_kind}")


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def pack_documents(token_streams, target_len: int) -> np.ndarray:
    """Greedy packing in corpus order: each document's tokens followed by one
    SEP, streamed into fixed-length blocks; the final partial block is padded.
    A document longer than a block simply continues into the next block, so
    tokens are conserved and never interleaved."""
    if target_len < 2:
        raise ValueError("target_len too small")
    streams = [np.asarray(stream, dtype=np.int64) for stream in token_streams]
    n_filled = sum(stream.size for stream in streams) + len(streams)
    blocks = np.full(-(-n_filled // target_len) * target_len, PAD_ID, dtype=np.int64)
    if streams:
        sep = np.array([SEP_ID], dtype=np.int64)
        np.concatenate([part for stream in streams for part in (stream, sep)],
                       out=blocks[:n_filled])
    return blocks.reshape(-1, target_len)


# ---------------------------------------------------------------------------
# stats + JSONL plumbing
# ---------------------------------------------------------------------------


def corpus_stats(docs) -> list[dict]:
    """Pre-training corpus summary: document count, mean length, byte size
    per case kind."""
    rows = []
    for kind in ("criminal", "civil"):
        subset = [d for d in docs if d.case_kind == kind]
        if not subset:
            rows.append({"kind": kind, "docs": 0, "avg_len": 0.0, "size_bytes": 0})
            continue
        lengths = [n_tokens(d.full_text()) for d in subset]
        # surrogatepass: a lone surrogate counts the 3 bytes UTF-8 would give its codepoint
        size = sum(len(d.full_text().encode("utf-8", "surrogatepass")) for d in subset)
        rows.append({"kind": kind, "docs": len(subset),
                     "avg_len": round(float(np.mean(lengths)), 2),
                     "size_bytes": size})
    return rows


def judgment_stats(criminal_examples, civil_examples,
                   charge_table: LabelTable, law_table: LabelTable,
                   cause_table: LabelTable) -> list[dict]:
    """Judgment dataset summary: cases, mean fact length, label-space sizes,
    penalty range."""
    rows = []
    for kind, examples, n_labels in (
        ("criminal", criminal_examples, len(charge_table)),
        ("civil", civil_examples, len(cause_table)),
    ):
        lengths = [n_tokens(e["fact"]) for e in examples]
        laws = {law for e in examples for law in e["laws"]}
        if kind == "criminal" and examples:
            months = [e["penalty_months"] for e in examples]
            prison = f"{min(months)}-{max(months)}"
        else:
            prison = ""
        rows.append({"kind": kind, "cases": len(examples),
                     "avg_len": round(float(np.mean(lengths)), 2) if lengths else 0.0,
                     "n_labels": n_labels, "n_laws": len(laws), "prison": prison})
    return rows


def read_jsonl(path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON line ({exc.msg})") from exc
    return rows


def write_jsonl(path, rows) -> None:
    """One sorted-key JSON object per line, non-ASCII as UTF-8. A lone
    surrogate, which UTF-8 cannot hold, is written as its JSON escape
    (backslash-u), so read_jsonl gives the row back unchanged."""
    write_text(path, "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"
                             for row in rows), errors="backslashreplace")


@dataclass
class PipelineResult:
    documents: list[CaseDocument]
    criminal_examples: list[dict]
    civil_examples: list[dict]
    charge_table: LabelTable
    law_table: LabelTable
    cause_table: LabelTable
    rejections: dict[str, int]


def process_corpus(raw_cases, rules: Ruleset,
                   min_fact_tokens: int = MIN_FACT_TOKENS) -> PipelineResult:
    """segment -> fact-length filter -> annotate, with per-reason rejection
    counts. raw_cases rows are {id, kind, text} objects (the JSONL schema):
    a row that is not one, or whose text or kind (absent: criminal) is not a
    string, is a ValueError naming the row and the field."""
    check_fields(raw_cases, {"text": TEXT, "kind": TEXT}, "raw case", optional=("kind",))
    charge_table, law_table, cause_table = LabelTable(), LabelTable(), LabelTable()
    documents, criminal, civil = [], [], []
    rejections: dict[str, int] = {}

    def reject(reason):
        rejections[reason] = rejections.get(reason, 0) + 1

    for row in raw_cases:
        kind = row.get("kind", "criminal")
        if kind not in ("criminal", "civil"):
            reject(f"UNKNOWN_KIND:{kind}")
            continue
        try:
            doc = segment_case(row["text"], rules, case_kind=kind,
                               doc_id=str(row.get("id", "")))
        except DocumentRejected as exc:
            reject(exc.reason)
            continue
        if not fact_long_enough(doc, min_fact_tokens):
            reject("FACT_TOO_SHORT")
            continue
        documents.append(doc)
        try:
            ann = extract_annotations(doc, rules, charge_table, law_table, cause_table)
        except DocumentRejected as exc:
            reject(exc.reason)
            continue
        if isinstance(ann, CriminalAnnotation):
            criminal.append({"id": doc.id, "fact": doc.fact,
                             "charges": sorted(ann.charges),
                             "laws": sorted(ann.laws),
                             "penalty_months": ann.penalty_months})
        else:
            civil.append({"id": doc.id, "fact": doc.fact,
                          "cause": ann.cause_of_action,
                          "laws": sorted(ann.laws)})
    return PipelineResult(documents, criminal, civil,
                          charge_table, law_table, cause_table, rejections)
