"""Deterministic synthetic fixtures: raw case documents that exercise the
segmentation/annotation rules, an 8-sentence MLM corpus, and small labelled
sets for each downstream task. Everything is a pure function of the seed."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import write_jsonl

_NAMES = ["张某", "李某", "王某", "赵某", "刘某", "陈某", "杨某", "黄某"]
_PLACES = ["城南商场", "火车站广场", "工业园区", "某小区楼下", "国道路口", "农贸市场"]

# (charge, criminal-law article as a Chinese numeral, deed description)
_CHARGES = [
    ("盗窃罪", "二百六十四", "秘密窃取他人财物"),
    ("故意伤害罪", "二百三十四", "持械殴打被害人致轻伤"),
    ("诈骗罪", "二百六十六", "虚构事实骗取他人钱款"),
    ("危险驾驶罪", "一百三十三", "醉酒后在道路上驾驶机动车"),
    ("寻衅滋事罪", "二百九十三", "无故殴打他人并起哄闹事"),
]

# (cause of action, civil-code article)
_CAUSES = [
    ("民间借贷纠纷", "六百七十五"),
    ("买卖合同纠纷", "五百九十五"),
    ("租赁合同纠纷", "七百零三"),
    ("机动车交通事故责任纠纷", "一百七十九"),
]

_CN_DIGIT = "零一二三四五六七八九"


def to_chinese_numeral(n: int) -> str:
    """Render 0..999 in the numeral style the extraction rules parse."""
    if not 0 <= n <= 999:
        raise ValueError("only 0..999 supported")
    if n < 10:
        return _CN_DIGIT[n]
    parts = []
    hundreds, rest = divmod(n, 100)
    if hundreds:
        parts.append(_CN_DIGIT[hundreds] + "百")
        if 0 < rest < 10:
            parts.append("零")
    tens, ones = divmod(rest, 10)
    if tens:
        parts.append(("" if (tens == 1 and not hundreds) else _CN_DIGIT[tens]) + "十")
    if ones:
        parts.append(_CN_DIGIT[ones])
    return "".join(parts)


def penalty_phrase(months: int) -> str:
    if months == 0:
        return "免予刑事处罚"
    years, rem = divmod(months, 12)
    if years == 0:
        return f"判处拘役{to_chinese_numeral(rem)}个月" if rem < 6 else \
            f"判处有期徒刑{to_chinese_numeral(rem)}个月"
    text = f"判处有期徒刑{to_chinese_numeral(years)}年"
    if rem:
        text += f"{to_chinese_numeral(rem)}个月"
    return text


def _fact_body(rng: np.random.Generator, deed: str, name: str, n_sentences: int = 3) -> str:
    sentences = []
    for _ in range(n_sentences):
        year = 2015 + int(rng.integers(0, 6))
        month = 1 + int(rng.integers(0, 12))
        day = 1 + int(rng.integers(0, 28))
        place = _PLACES[rng.integers(0, len(_PLACES))]
        amount = int(rng.integers(2, 90)) * 100
        sentences.append(
            f"{year}年{month}月{day}日，被告人{name}在{place}{deed}，数额计人民币{amount}元。")
    return "".join(sentences)


def criminal_case(rng: np.random.Generator, doc_id: str) -> dict:
    name = _NAMES[rng.integers(0, len(_NAMES))]
    charge, law, deed = _CHARGES[rng.integers(0, len(_CHARGES))]
    months = int(rng.integers(0, 61))
    text = (
        f"某市人民检察院指控被告人{name}犯{charge}一案。"
        f"经审理查明：{_fact_body(rng, deed, name)}上述事实有证据证实。"
        f"本院认为，被告人{name}的行为已构成{charge}，"
        f"依照《中华人民共和国刑法》第{law}条之规定。"
        f"判决如下：被告人{name}犯{charge}，{penalty_phrase(months)}。"
    )
    return {"id": doc_id, "kind": "criminal", "text": text}


def civil_case(rng: np.random.Generator, doc_id: str) -> dict:
    plaintiff = _NAMES[rng.integers(0, len(_NAMES))]
    defendant = _NAMES[rng.integers(0, len(_NAMES))]
    cause, law = _CAUSES[rng.integers(0, len(_CAUSES))]
    amount = int(rng.integers(5, 200)) * 1000
    body = _fact_body(rng, f"向{defendant}主张欠款", plaintiff)
    text = (
        f"原告{plaintiff}与被告{defendant}{cause}一案。"
        f"经审理查明：{body}双方对欠款金额{amount}元无异议。"
        f"本院认为，本案系{cause}，依照《中华人民共和国民法典》第{law}条之规定。"
        f"判决如下：被告{defendant}于本判决生效之日起十日内向原告{plaintiff}支付欠款。"
    )
    return {"id": doc_id, "kind": "civil", "text": text}


def synthetic_cases(n_criminal: int = 8, n_civil: int = 8, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = [criminal_case(rng, f"crim{i:03d}") for i in range(n_criminal)]
    rows += [civil_case(rng, f"civ{i:03d}") for i in range(n_civil)]
    return rows


def mlm_sentences() -> list[str]:
    """Fixed 8-sentence corpus for MLM sanity runs."""
    return [
        "被告人张某犯盗窃罪。",
        "本院认为证据确实充分。",
        "原告与被告买卖合同纠纷。",
        "判处有期徒刑六个月。",
        "依照刑法第二百六十四条。",
        "双方当事人自愿达成调解。",
        "上述事实有证据证实。",
        "判决如下驳回诉讼请求。",
    ]


# ---------------------------------------------------------------------------
# task fixtures
# ---------------------------------------------------------------------------


def retrieval_examples(n_queries: int = 4, n_cands: int = 4, seed: int = 0) -> list[dict]:
    """Binary-relevance pairs; a candidate is relevant when it narrates the
    same deed as the query."""
    rng = np.random.default_rng(seed)
    rows = []
    for qi in range(n_queries):
        charge, _, deed = _CHARGES[qi % len(_CHARGES)]
        name = _NAMES[rng.integers(0, len(_NAMES))]
        query = f"被告人{name}{deed}，应当如何处理。"
        for ci in range(n_cands):
            relevant = ci % 2 == 0
            if relevant:
                cand = _fact_body(rng, deed, _NAMES[rng.integers(0, len(_NAMES))], 2)
            else:
                other = _CHARGES[(qi + 1 + ci) % len(_CHARGES)][2]
                cand = _fact_body(rng, other, _NAMES[rng.integers(0, len(_NAMES))], 2)
            rows.append({"query_id": f"q{qi}", "candidate_id": f"q{qi}c{ci}",
                         "query": query, "candidate": cand,
                         "relevant": int(relevant)})
    return rows


def rc_examples(n: int = 16, seed: int = 0) -> list[dict]:
    """Span / yes / no / unanswerable questions over short sentence lists."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        name = _NAMES[rng.integers(0, len(_NAMES))]
        place = _PLACES[rng.integers(0, len(_PLACES))]
        charge, _, deed = _CHARGES[rng.integers(0, len(_CHARGES))]
        amount = int(rng.integers(2, 50)) * 100
        context = [
            f"被告人{name}到案后如实供述。",
            f"被告人{name}在{place}{deed}。",
            f"涉案金额为人民币{amount}元。",
        ]
        kind = ("span", "yes", "no", "unanswerable")[i % 4]
        if kind == "span":
            question = f"被告人{name}在何处作案？"
            answer, support = place, [0, 1, 0]
        elif kind == "yes":
            question = f"被告人{name}是否如实供述？"
            answer, support = "YES", [1, 0, 0]
        elif kind == "no":
            question = f"被告人{name}是否拒不认罪？"
            answer, support = "NO", [1, 0, 0]
        else:
            question = f"被告人{name}的辩护人是谁？"
            answer, support = "", [0, 0, 0]
        rows.append({"question": question, "context": context,
                     "answer": answer, "answer_type": kind, "support": support})
    return rows


def mcq_examples(n: int = 16, seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []
    letters = "ABCD"
    for i in range(n):
        charge, law, deed = _CHARGES[rng.integers(0, len(_CHARGES))]
        question = f"行为人{deed}，构成何罪？"
        correct = f"构成{charge}"
        wrong = [f"构成{c}" for c, _, _ in _CHARGES if c != charge][:3]
        order = rng.permutation(4)
        choices = [None] * 4
        answer_set = []
        pool = [correct] + wrong
        for slot, src in enumerate(order):
            choices[slot] = pool[src]
            if src == 0:
                answer_set.append(letters[slot])
        if i % 5 == 4:  # occasionally a second acceptable choice
            correct_slot = letters.index(answer_set[0])
            extra = (correct_slot + 1) % 4 or 1  # any slot other than the correct one
            choices[extra] = correct + "（同上）"
            answer_set.append(letters[extra])
        rows.append({"question": question, "choices": choices,
                     "answer_set": sorted(set(answer_set))})
    return rows


def write_fixture_files(out_dir, seed: int = 0) -> dict[str, Path]:
    """Materialize all fixtures as JSONL for the CLI smoke run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, rows in (("raw_cases", synthetic_cases(8, 8, seed=seed)),
                       ("retrieval", retrieval_examples(seed=seed)),
                       ("rc", rc_examples(seed=seed)),
                       ("mcq", mcq_examples(seed=seed))):
        paths[name] = out_dir / f"{name}.jsonl"
        write_jsonl(paths[name], rows)
    return paths
