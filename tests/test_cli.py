"""CLI surface: subcommands, reproducibility, file schemas, error paths."""

import csv
import json
import platform

import numpy as np
import pytest

from lctx.checkpoint import load_arrays, save_arrays
from lctx.cli import MALLOC_THRESHOLDS, TASKS, _openblas, _write_metrics_csv, main
from lctx.corpus import LabelTable, read_jsonl
from lctx.encoder import Encoder
from lctx.fixtures import write_fixture_files
from lctx.metrics import FoldPlan
from lctx.vocab import PAD_ID, SEP_ID, UNK_ID, CharVocab, build_vocab


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def fixture_dir(tmp_path):
    write_fixture_files(tmp_path / "fx", seed=3)
    return tmp_path


def task_data(fixture_dir, task):
    """The task's example rows: judgment rows come out of preprocess."""
    if task.startswith("judgment"):
        pp = fixture_dir / "pp"
        run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
             "--out", pp, "--seq-len", 48])
        return pp / f"{task.replace('-', '_')}.jsonl"
    return fixture_dir / "fx" / f"{task}.jsonl"


def test_preprocess_outputs(fixture_dir, tmp_path):
    out = tmp_path / "pp"
    assert run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
                "--out", out, "--seq-len", 64]) == 0
    for name in ("vocab.txt", "blocks.npy", "judgment_criminal.jsonl",
                 "judgment_civil.jsonl", "labels_charges.txt", "labels_laws.txt",
                 "labels_causes.txt", "stats_pretrain.csv", "stats_judgment.csv",
                 "rejections.csv", "rules.json", "run.json"):
        assert (out / name).exists(), name
    blocks = np.load(out / "blocks.npy")
    assert blocks.ndim == 2 and blocks.shape[1] == 64
    with open(out / "stats_pretrain.csv", encoding="utf-8") as fh:
        assert next(csv.reader(fh)) == ["kind", "docs", "avg_len", "size_bytes"]
    with open(out / "stats_judgment.csv", encoding="utf-8") as fh:
        assert next(csv.reader(fh)) == ["kind", "cases", "avg_len",
                                        "n_labels", "n_laws", "prison"]
    resolved = json.loads((out / "run.json").read_text())
    assert resolved["seq_len"] == 64 and "vocab_size" in resolved


def test_preprocess_corrupted_line_reports_lineno(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "kind": "criminal", "text": "x"}\n{oops\n',
                   encoding="utf-8")
    code = run(["preprocess", "--input", bad, "--out", tmp_path / "out"])
    assert code == 1
    assert ":2:" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ('["经审理查明"]', "rules.json top level must be a JSON object"),
    ('{"fact_markers": "经审理查明"}', "rules.json fact_markers must be a list of strings, got "),
    ('{"fact_marker": ["经审理查明"]}', "unknown key 'fact_marker' in the top level of "),
    ('{fact_markers: []}', "rules.json: Expecting property name"),
    ('{"fact_markers": "经审理查明"}', 'got "经审理查明"'),
], ids=["list", "markers-string", "unknown-key", "not-json", "echo-as-written"])
def test_preprocess_rules_checked_before_anything_is_written(fixture_dir, tmp_path, capsys,
                                                             text, named):
    rules = tmp_path / "rules.json"
    rules.write_text(text, encoding="utf-8")
    out = tmp_path / "pp"
    capsys.readouterr()
    assert run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
                "--rules", rules, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(rules) in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("row, message", [
    pytest.param(["经审理查明"], "raw case row 2 is not a JSON object", id="not-an-object"),
    pytest.param({"id": "x", "kind": "civil"}, "raw case row 2 has no 'text'", id="no-text"),
    pytest.param({"id": "x", "text": 5}, "raw case row 2: 'text' must be a string, got 5",
                 id="text-number"),
    pytest.param({"id": "x", "kind": 3, "text": "经审理查明"},
                 "raw case row 2: 'kind' must be a string, got 3", id="kind-number"),
])
def test_preprocess_mistyped_raw_row_writes_nothing(fixture_dir, tmp_path, capsys, row,
                                                    message):
    rows = read_jsonl(fixture_dir / "fx" / "raw_cases.jsonl")[:2] + [row]
    raw = write_rows(tmp_path / "raw.jsonl", rows)
    out = tmp_path / "pp"
    capsys.readouterr()
    assert run(["preprocess", "--input", raw, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_preprocess_row_with_a_lone_surrogate(fixture_dir, tmp_path):
    rows = read_jsonl(fixture_dir / "fx" / "raw_cases.jsonl")
    row = next(r for r in rows if r["kind"] == "criminal")
    cut = row["text"].index("经审理查明") + 7
    row["text"] = row["text"][:cut] + "\ud800" + row["text"][cut:]
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "pp"
    assert run(["preprocess", "--input", raw, "--out", out, "--seq-len", 48]) == 0
    vocab = CharVocab.load(out / "vocab.txt")
    assert "\ud800" not in vocab.tokens_
    assert vocab.transform("\ud800").tolist() == [UNK_ID]
    facts = [r["fact"] for r in read_jsonl(out / "judgment_criminal.jsonl")]
    assert any("\ud800" in fact for fact in facts)
    assert not list(out.glob("*.tmp"))


def test_preprocess_kind_with_a_lone_surrogate(fixture_dir, tmp_path):
    # the row is rejected, and its reason, which holds the kind, is escaped
    rows = read_jsonl(fixture_dir / "fx" / "raw_cases.jsonl")
    rows[0]["kind"] = "\ud800civil"
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "pp"
    assert run(["preprocess", "--input", raw, "--out", out, "--seq-len", 48]) == 0
    assert b"UNKNOWN_KIND:\\ud800civil,1\r\n" in (out / "rejections.csv").read_bytes()
    assert (out / "run.json").is_file()
    assert not list(out.glob("*.tmp"))


def test_preprocess_charge_with_a_lone_surrogate(fixture_dir, tmp_path):
    # the charge pattern captures the surrogate placed before the judgment's
    # last 罪, so the charge table holds a label UTF-8 cannot encode
    rows = read_jsonl(fixture_dir / "fx" / "raw_cases.jsonl")
    row = next(r for r in rows if r["kind"] == "criminal")
    cut = row["text"].rindex("罪")
    row["text"] = row["text"][:cut] + "\ud800" + row["text"][cut:]
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "pp"
    assert run(["preprocess", "--input", raw, "--out", out, "--seq-len", 48]) == 0
    charges = LabelTable.load(out / "labels_charges.txt")
    odd = [lab for lab in charges.labels if "\ud800" in lab]
    assert len(odd) == 1 and odd[0].endswith("\ud800罪")
    assert "\\ud800" in (out / "labels_charges.txt").read_text(encoding="utf-8")
    ids = {i for r in read_jsonl(out / "judgment_criminal.jsonl") for i in r["charges"]}
    assert charges.index[odd[0]] in ids
    assert not list(out.glob("*.tmp"))


def test_pretrain_and_resume_cli(fixture_dir, tmp_path, capsys):
    pp = tmp_path / "pp"
    run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
         "--out", pp, "--seq-len", 48])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "pretrain": {"seq_len": 48, "batch_size": 4, "peak_lr": 1e-3,
                     "total_steps": 40, "warmup_steps": 5},
        "encoder": {"n_layers": 1, "n_heads": 2, "hidden_dim": 32, "ffn_dim": 64,
                    "window": 4},
    }), encoding="utf-8")
    out = tmp_path / "pt"
    assert run(["pretrain", "--data", pp, "--config", cfg, "--out", out,
                "--steps", 10, "--seed", 1]) == 0
    assert sorted(p.name for p in (out / "step000010").iterdir()) == [
        "model.ckpt", "optim.ckpt", "state.json"]
    assert (out / "loss.csv").exists()
    out2 = tmp_path / "pt2"
    assert run(["pretrain", "--data", pp, "--config", cfg, "--out", out2,
                "--steps", 5, "--seed", 1, "--resume", out / "step000010"]) == 0
    assert (out2 / "step000015" / "model.ckpt").exists()
    # a checkpoint cut inside its first array's dims is a named error
    cut = tmp_path / "cut"
    cut.mkdir()
    for name in ("optim.ckpt", "state.json"):
        (cut / name).write_bytes((out / "step000010" / name).read_bytes())
    (cut / "model.ckpt").write_bytes((out / "step000010" / "model.ckpt").read_bytes()[:33])
    capsys.readouterr()
    assert run(["pretrain", "--data", pp, "--config", cfg, "--out", tmp_path / "pt3",
                "--steps", 5, "--seed", 1, "--resume", cut]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model.ckpt" in err and "Traceback" not in err


def test_refused_resume_writes_no_run_json(fixture_dir, tmp_path, capsys):
    pp = tmp_path / "pp"
    run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
         "--out", pp, "--seq-len", 48])

    def config(n_heads, window):
        path = tmp_path / f"cfg_h{n_heads}_w{window}.json"
        path.write_text(json.dumps({
            "pretrain": {"seq_len": 48, "batch_size": 4, "total_steps": 4, "warmup_steps": 1},
            "encoder": {"n_layers": 1, "n_heads": n_heads, "hidden_dim": 32, "ffn_dim": 64,
                        "window": window}}),
            encoding="utf-8")
        return path

    assert run(["pretrain", "--data", pp, "--config", config(n_heads=2, window=4),
                "--out", tmp_path / "pt", "--steps", 2, "--seed", 1]) == 0
    ckpt = tmp_path / "pt" / "step000002"
    capsys.readouterr()
    # a different encoder config, then a checkpoint without its commit marker
    assert run(["pretrain", "--data", pp, "--config", config(n_heads=4, window=16),
                "--out", tmp_path / "pt2", "--steps", 2, "--resume", ckpt]) == 1
    assert "n_heads 4 (checkpoint: 2)" in capsys.readouterr().err
    assert not (tmp_path / "pt2" / "run.json").exists()
    (ckpt / "state.json").unlink()
    assert run(["pretrain", "--data", pp, "--config", config(n_heads=2, window=4),
                "--out", tmp_path / "pt3", "--steps", 2, "--resume", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "step000002: not a complete checkpoint" in err
    assert not (tmp_path / "pt3" / "run.json").exists()


@pytest.mark.parametrize("edit, problem", [
    pytest.param(lambda a: a.pop("m.embed.tok"), "missing 'm.embed.tok'", id="no-moment"),
    pytest.param(lambda a: a.pop("step"), "missing 'step'", id="no-step"),
    pytest.param(lambda a: a.update({"m.mlm.bias": a["step"]}), "unexpected 'm.mlm.bias'",
                 id="unexpected-array"),
    pytest.param(lambda a: a.update({"v.embed.tok": np.zeros(3, np.float32)}),
                 "'v.embed.tok' is (3,) in the checkpoint, {tok} in the optimizer state",
                 id="misshapen-moment"),
])
def test_resume_of_a_mismatched_optimizer_state_writes_nothing(pp64, tmp_path, capsys, edit,
                                                               problem):
    assert run(["pretrain", "--data", pp64, "--out", tmp_path / "pt", "--steps", 1]) == 0
    optim = tmp_path / "pt" / "step000001" / "optim.ckpt"
    arrays = load_arrays(optim)
    tok = arrays["m.embed.tok"].shape
    edit(arrays)
    save_arrays(optim, arrays)
    capsys.readouterr()
    out = tmp_path / "pt2"
    assert run(["pretrain", "--data", pp64, "--out", out, "--steps", 1,
                "--resume", optim.parent]) == 1
    assert capsys.readouterr().err == (f"error: {optim}: checkpoint does not match the "
                                       f"optimizer state: {problem.format(tok=tok)}\n")
    assert not out.exists()


def test_resume_of_an_unknown_config_key_prints_it_unquoted(fixture_dir, tmp_path, capsys):
    pp = tmp_path / "pp"
    run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
         "--out", pp, "--seq-len", 48])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "pretrain": {"seq_len": 48, "batch_size": 4, "total_steps": 4, "warmup_steps": 1},
        "encoder": {"n_layers": 1, "n_heads": 2, "hidden_dim": 32, "ffn_dim": 64}}),
        encoding="utf-8")
    assert run(["pretrain", "--data", pp, "--config", cfg, "--out", tmp_path / "pt",
                "--steps", 2, "--seed", 1]) == 0
    ckpt = tmp_path / "pt" / "step000002"
    state = json.loads((ckpt / "state.json").read_text(encoding="utf-8"))
    state["encoder"]["bogus"] = 1
    (ckpt / "state.json").write_text(json.dumps(state), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "pt2"
    assert run(["pretrain", "--data", pp, "--config", cfg, "--out", out,
                "--steps", 2, "--resume", ckpt]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: unknown key 'bogus' in the encoder section of {ckpt / 'state.json'} "
                   "(allowed: n_layers, n_heads, hidden_dim, ffn_dim, vocab_size, max_positions, "
                   "n_position_types, window, dilation)\n")
    assert not out.exists()


def test_resume_of_a_string_step_is_refused(fixture_dir, tmp_path, capsys):
    # a step of "100" used to pass the resume check and end in a TypeError
    # traceback out of the step loop
    pp = tmp_path / "pp"
    run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
         "--out", pp, "--seq-len", 48])
    assert run(["pretrain", "--data", pp, "--out", tmp_path / "pt", "--steps", 1]) == 0
    ckpt = tmp_path / "pt" / "step000001"
    state = json.loads((ckpt / "state.json").read_text(encoding="utf-8"))
    state["step"] = "100"
    (ckpt / "state.json").write_text(json.dumps(state), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "pt2"
    assert run(["pretrain", "--data", pp, "--out", out, "--steps", 1, "--resume", ckpt]) == 1
    err = capsys.readouterr().err
    assert err == f'error: {ckpt / "state.json"} step must be an integer, got "100"\n'
    assert not out.exists()


def test_resume_of_the_old_layout_is_refused(fixture_dir, tmp_path, capsys):
    # before the encoder config moved into state.json it was model.cfg's
    # key=value lines; such a checkpoint is refused, not read
    pp = tmp_path / "pp"
    run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
         "--out", pp, "--seq-len", 48])
    assert run(["pretrain", "--data", pp, "--out", tmp_path / "pt", "--steps", 1]) == 0
    ckpt = tmp_path / "pt" / "step000001"
    state = json.loads((ckpt / "state.json").read_text(encoding="utf-8"))
    (ckpt / "state.json").write_text(json.dumps({"step": 1}), encoding="utf-8")
    (ckpt / "model.cfg").write_text("".join(f"{k}={'' if v is None else v}\n"
                                            for k, v in state["encoder"].items()))
    capsys.readouterr()
    out = tmp_path / "pt2"
    assert run(["pretrain", "--data", pp, "--out", out, "--steps", 1, "--resume", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt / 'state.json'}: no encoder section")
    assert err.count("\n") == 1 and "model.cfg" in err
    assert not out.exists()


@pytest.mark.parametrize("config, key, section", [
    ({"encoder": {"bogus": 1}}, "bogus", "encoder section"),
    ({"encoder": {"window": 4, "dropout": 0.1}}, "dropout", "encoder section"),
    ({"pretrain": {"steps": 5}}, "steps", "pretrain section"),
    ({"pretrain": {}, "encoder": {}, "optim": {}}, "optim", "top level"),
])
def test_pretrain_config_unknown_key_named(fixture_dir, tmp_path, capsys, config, key, section):
    pp = tmp_path / "pp"
    run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
         "--out", pp, "--seq-len", 48])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "pt"
    assert run(["pretrain", "--data", pp, "--config", cfg, "--out", out, "--steps", 1]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert repr(key) in err and section in err
    assert not out.exists()  # rejected before anything is written


def test_pretrain_config_zero_heads_is_a_named_error(fixture_dir, tmp_path, capsys):
    pp = tmp_path / "pp"
    run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
         "--out", pp, "--seq-len", 48])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"encoder": {"n_heads": 0}}), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "pt"
    assert run(["pretrain", "--data", pp, "--config", cfg, "--out", out, "--steps", 1]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_heads" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("config, key, section", [
    ({"step": 5}, "step", "top level"),
    ({"encoder": {"n_layers": 1, "dropout": 0.0}}, "dropout", "encoder section"),
])
def test_finetune_config_unknown_key_named(fixture_dir, tmp_path, capsys, config, key, section):
    rc = fixture_dir / "fx" / "rc.jsonl"
    vocab = tmp_path / "vocab.txt"
    build_vocab(json.dumps(row, ensure_ascii=False) for row in read_jsonl(rc)).save(vocab)
    cfg = tmp_path / "task.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "ft"
    assert run(["finetune", "--task", "rc", "--data", rc, "--vocab", vocab,
                "--config", cfg, "--out", out, "--steps", 1]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert repr(key) in err and section in err
    assert not out.exists()


@pytest.fixture()
def pp64(fixture_dir):
    """Preprocessed fixture corpus in 64-token blocks."""
    pp = fixture_dir / "pp64"
    assert run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
                "--out", pp, "--seq-len", 64, "--min-fact-tokens", 5]) == 0
    return pp


@pytest.mark.parametrize("command, config, argv, named", [
    pytest.param("finetune", {"steps": "3"}, [], "steps", id="finetune-steps-string"),
    pytest.param("finetune", {"lr": "x"}, [], "lr", id="finetune-lr-string"),
    pytest.param("finetune", {"seed": True}, [], "seed", id="finetune-seed-bool"),
    pytest.param("retrieval", {"model_type": "sparse"}, [], "model_type",
                 id="retrieval-model-type"),
    pytest.param("pretrain", {"encoder": {"window": 3}}, [], "window", id="window-odd"),
    pytest.param("pretrain", {"encoder": {"dilation": [1]}}, [], "dilation",
                 id="dilation-length"),
    pytest.param("pretrain", {"encoder": {"dilation": 1}}, [], "encoder.dilation",
                 id="dilation-int"),
    pytest.param("pretrain", {"encoder": {"hidden_dim": 32.0}}, [], "encoder.hidden_dim",
                 id="hidden-dim-float"),
    pytest.param("pretrain", {"pretrain": {"mask_rate": "0.1"}}, [], "pretrain.mask_rate",
                 id="mask-rate-string"),
    pytest.param("pretrain", {"pretrain": {"batch_size": 0}}, [], "batch_size",
                 id="batch-size-zero"),
    pytest.param("pretrain", {"encoder": {"n_layers": True}}, [], "encoder.n_layers",
                 id="n-layers-bool"),
    pytest.param("pretrain", {"pretrain": {"seq_len": 32}}, [], "seq_len",
                 id="seq-len-not-the-blocks"),
    pytest.param("pretrain", {"encoder": {"max_positions": 32}}, [], "max_positions",
                 id="blocks-longer-than-max-positions"),
    pytest.param("pretrain", {"encoder": {"vocab_size": 8}}, [], "vocab_size",
                 id="vocab-size-below-the-blocks"),
    pytest.param("finetune", None, ["--steps", -1], "--steps -1", id="finetune-steps-negative"),
    pytest.param("pretrain", None, ["--steps", -2], "--steps -2", id="pretrain-steps-negative"),
    pytest.param("pretrain", None, ["--checkpoint-interval", -1], "--checkpoint-interval -1",
                 id="checkpoint-interval-negative"),
    pytest.param("pretrain", None, ["--checkpoint-interval", 0], "--checkpoint-interval 0",
                 id="checkpoint-interval-zero"),
])
def test_refused_input_writes_nothing(fixture_dir, pp64, tmp_path, capsys, command, config,
                                      argv, named):
    if command == "pretrain":
        argv = ["pretrain", "--data", pp64, "--steps", 3, *argv]
    else:
        task = "retrieval" if command == "retrieval" else "rc"
        argv = ["finetune", "--task", task, "--data", fixture_dir / "fx" / f"{task}.jsonl",
                "--steps", 1, *argv]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", cfg]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err
    assert not out.exists()


def test_pretrain_of_float_blocks_writes_nothing(pp64, tmp_path, capsys):
    # float ids used to pass every block check and end in an IndexError
    # traceback out of the embedding, after run.json was written
    np.save(pp64 / "blocks.npy", np.load(pp64 / "blocks.npy").astype(np.float64))
    out = tmp_path / "pt"
    capsys.readouterr()
    assert run(["pretrain", "--data", pp64, "--out", out, "--steps", 1]) == 1
    assert capsys.readouterr().err == "error: blocks must hold integer token ids, not float64\n"
    assert not out.exists()


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
def test_pretrain_batch_without_a_maskable_token_writes_nothing(pp64, tmp_path, capsys, resume):
    """A third block [SEP, PAD, ...], the tail that pack_documents leaves when
    the documents fill whole blocks, makes step 2's batch of one block hold
    no maskable token: a named error before anything is written, also when
    a resumed run reaches that step."""
    blocks = np.load(pp64 / "blocks.npy")
    blocks[2] = PAD_ID
    blocks[2, 0] = SEP_ID
    np.save(pp64 / "blocks.npy", blocks)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pretrain": {"batch_size": 1}}), encoding="utf-8")
    argv = ["pretrain", "--data", pp64, "--config", cfg, "--steps", 3]
    if resume:
        assert run([*argv[:-1], 2, "--out", tmp_path / "pt"]) == 0
        argv = [*argv[:-1], 1, "--resume", tmp_path / "pt" / "step000002"]
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([*argv, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error: pretraining step 2: its batch, block(s) [2], holds no maskable (non-special) "
        "token, so its MLM loss would have no target\n")
    assert not out.exists()


def test_pretrain_records_the_resolved_configs(pp64, tmp_path):
    # seq_len comes from the blocks; --steps 0 writes the run record and no checkpoint
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"encoder": {"n_layers": 1, "hidden_dim": 32, "ffn_dim": 64,
                                           "dilation": [0, 1]}}), encoding="utf-8")
    out = tmp_path / "pt"
    assert run(["pretrain", "--data", pp64, "--config", cfg, "--out", out, "--steps", 0]) == 0
    resolved = json.loads((out / "run.json").read_text())
    assert resolved["pretrain"]["seq_len"] == 64
    assert json.loads((out / "pretrain.json").read_text())["seq_len"] == 64
    assert resolved["encoder"] == {
        "n_layers": 1, "n_heads": 2, "hidden_dim": 32, "ffn_dim": 64,
        "vocab_size": len(CharVocab.load(pp64 / "vocab.txt")), "max_positions": 64,
        "n_position_types": 2, "window": 4, "dilation": [0, 1]}
    assert not list(out.glob("step*"))


def test_finetune_records_the_resolved_encoder(fixture_dir, tmp_path):
    rc = fixture_dir / "fx" / "rc.jsonl"
    vocab = tmp_path / "vocab.txt"
    build_vocab(json.dumps(row, ensure_ascii=False) for row in read_jsonl(rc)).save(vocab)
    cfg = tmp_path / "task.json"
    cfg.write_text(json.dumps({"lr": 1, "encoder": {"n_layers": 1, "hidden_dim": 16,
                                                    "ffn_dim": 32, "max_positions": 160}}),
                   encoding="utf-8")
    out = tmp_path / "ft"
    assert run(["finetune", "--task", "rc", "--data", rc, "--vocab", vocab, "--config", cfg,
                "--out", out, "--steps", 1]) == 0
    resolved = json.loads((out / "run.json").read_text())
    assert resolved["lr"] == 1  # an int is taken where the option is a float
    assert resolved["encoder"]["hidden_dim"] == 16
    assert resolved["encoder"]["vocab_size"] == len(CharVocab.load(vocab))
    assert run(["finetune", "--task", "rc", "--data", rc, "--out", tmp_path / "ft2",
                "--steps", 0]) == 0
    assert json.loads((tmp_path / "ft2" / "run.json").read_text())["encoder"] is None


def test_finetune_vocabulary_is_inside_the_model_commit(fixture_dir, tmp_path, capsys,
                                                        monkeypatch):
    def refuse(self, path):
        raise ValueError("vocabulary write refused")

    monkeypatch.setattr(CharVocab, "save", refuse)
    out = tmp_path / "ft"
    assert run(["finetune", "--task", "rc", "--data", fixture_dir / "fx" / "rc.jsonl",
                "--out", out, "--steps", 0]) == 1
    assert "vocabulary write refused" in capsys.readouterr().err
    assert (out / "model" / "model.ckpt").exists()
    assert not (out / "model" / "meta.json").exists()


def test_malformed_vocab_file_is_a_named_error(fixture_dir, tmp_path, capsys):
    pp = tmp_path / "pp"
    run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
         "--out", pp, "--seq-len", 48])
    (pp / "vocab.txt").write_text("甲\n乙\n甲\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["pretrain", "--data", pp, "--out", tmp_path / "pt", "--steps", 1]) == 1
    assert run(["finetune", "--task", "judgment-civil", "--data", pp / "judgment_civil.jsonl",
                "--vocab", pp / "vocab.txt", "--out", tmp_path / "ft", "--steps", 1]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error:") and "vocab.txt" in line for line in err)


def test_finetune_and_evaluate_roundtrip(fixture_dir, tmp_path):
    pp = tmp_path / "pp"
    run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
         "--out", pp, "--seq-len", 48])
    ft = tmp_path / "ft"
    assert run(["finetune", "--task", "judgment-civil",
                "--data", pp / "judgment_civil.jsonl", "--vocab", pp / "vocab.txt",
                "--out", ft, "--steps", 5, "--lr", 1e-3]) == 0
    assert (ft / "model" / "model.ckpt").exists()
    assert (ft / "predictions.jsonl").exists()
    ev = tmp_path / "eval.csv"
    assert run(["evaluate", "--task", "judgment-civil",
                "--pred", ft / "predictions.jsonl",
                "--gold", pp / "judgment_civil.jsonl", "--out", ev]) == 0
    with open(ev, encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header[0] == "task" and "Mic@c" in header and "all" in header


@pytest.mark.parametrize("task", ["judgment-criminal", "judgment-civil", "retrieval",
                                  "rc", "mcq"])
def test_evaluate_reproduces_finetune_metrics(fixture_dir, tmp_path, task):
    # evaluate on finetune's predictions scores through the same path as the
    # head's evaluate(), so it writes the same metrics row (retrieval's
    # relevance accuracy has no column, leaving its ranking columns)
    data = task_data(fixture_dir, task)
    ft = tmp_path / "ft"
    assert run(["finetune", "--task", task, "--data", data, "--out", ft,
                "--steps", 2]) == 0
    ev = tmp_path / "eval.csv"
    assert run(["evaluate", "--task", task, "--pred", ft / "predictions.jsonl",
                "--gold", data, "--out", ev]) == 0
    with open(ft / "metrics.csv", encoding="utf-8") as fh:
        [want] = list(csv.DictReader(fh))
    with open(ev, encoding="utf-8") as fh:
        [got] = list(csv.DictReader(fh))
    assert got == want
    assert any(want[col] for col in want if col != "task")


@pytest.mark.parametrize("task", ["judgment-criminal", "judgment-civil", "retrieval",
                                  "rc", "mcq"])
def test_head_evaluate_reproduces_finetune_metrics(fixture_dir, tmp_path, task):
    # one scoring path: the task table holds a head and its fixed arguments,
    # and finetune's metrics row is the evaluate() of a head fitted alike,
    # as smoke and the benchmark call it
    cls, fixed = TASKS[task]
    assert "evaluate" in vars(cls) and "score_rows" in vars(cls)
    data = task_data(fixture_dir, task)
    ft = tmp_path / "ft"
    assert run(["finetune", "--task", task, "--data", data, "--out", ft, "--steps", 2]) == 0
    rows = read_jsonl(data)
    metrics = cls(**fixed, steps=2).fit(rows).evaluate(rows)
    _write_metrics_csv(tmp_path / "head.csv", [{"task": task, **metrics}])
    assert (tmp_path / "head.csv").read_bytes() == (ft / "metrics.csv").read_bytes()


@pytest.mark.parametrize("task", ["judgment-criminal", "judgment-civil", "retrieval",
                                  "rc", "mcq"])
def test_finetune_encodes_each_row_once(fixture_dir, tmp_path, task, monkeypatch):
    # at --steps 0 every encoder call comes after fit: the predictions written
    # and the metrics row scored from them share one encode per row (for MCQ,
    # per question-choice pair). Rows are counted by the batch axis of each
    # call, since rows that share a global span are encoded in one call.
    data = task_data(fixture_dir, task)
    batch_sizes = []
    encode = Encoder.encode
    monkeypatch.setattr(Encoder, "encode", lambda self, token_ids, *a, **k: (
        batch_sizes.append(len(token_ids)) or encode(self, token_ids, *a, **k)))
    assert run(["finetune", "--task", task, "--data", data, "--out", tmp_path / "ft",
                "--steps", 0]) == 0
    rows = read_jsonl(data)
    want = sum(len(r["choices"]) for r in rows) if task == "mcq" else len(rows)
    assert sum(batch_sizes) == want
    assert len(batch_sizes) < want
    assert len(read_jsonl(tmp_path / "ft" / "predictions.jsonl")) == len(rows)


@pytest.mark.parametrize("task, folds, how", [
    pytest.param("rc", 2, "flag", id="flag"),
    pytest.param("rc", 2, "config", id="config"),
    pytest.param("retrieval", -1, "flag", id="retrieval-negative"),
    pytest.param("retrieval", 1, "flag", id="retrieval-one"),
    pytest.param("retrieval", 1, "config", id="retrieval-one-config"),
])
def test_finetune_folds_rejected_for_other_tasks(fixture_dir, tmp_path, capsys, task, folds,
                                                 how):
    # also rejected for retrieval: fewer than 2 folds (0 turns them off)
    out = tmp_path / "ft"
    argv = ["finetune", "--task", task, "--data", fixture_dir / "fx" / f"{task}.jsonl",
            "--out", out, "--steps", 1]
    if how == "flag":
        argv += ["--folds", folds]
    else:
        cfg = tmp_path / "task.json"
        cfg.write_text(json.dumps({"folds": folds}), encoding="utf-8")
        argv += ["--config", cfg]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--folds" in err and "Traceback" not in err
    assert not out.exists()  # rejected before anything is written


@pytest.mark.parametrize("how", ["flag", "config"])
def test_finetune_dense_model_type_rejected_for_other_tasks(fixture_dir, tmp_path, capsys,
                                                            how):
    out = tmp_path / "ft"
    argv = ["finetune", "--task", "rc", "--data", fixture_dir / "fx" / "rc.jsonl",
            "--out", out, "--steps", 1]
    if how == "flag":
        argv += ["--model-type", "dense"]
    else:
        cfg = tmp_path / "task.json"
        cfg.write_text(json.dumps({"model_type": "dense"}), encoding="utf-8")
        argv += ["--config", cfg]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--model-type" in err and "Traceback" not in err
    assert not out.exists()  # rejected before anything is written


def write_rows(path, rows):
    path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
                    encoding="utf-8")
    return path


def bad_field(task, field, value, want, case_id):
    """A refusal case: row 1's `field` set to `value`, which is not `want`."""
    return pytest.param(task, lambda rows: rows[1].update({field: value}),
                        f"{task} row 1: {field!r} must be {want}, "
                        f"got {json.dumps(value, ensure_ascii=False)}", id=case_id)


LABEL_ID = "a label id (an integer >= 0)"
LABEL_IDS = "a list of label ids (integers >= 0)"
ANSWER_SET = "a non-empty list of the letters of its choices"


@pytest.mark.parametrize("task, edit, message", [
    pytest.param("rc", lambda rows: rows.clear(), "no training examples", id="empty-file"),
    pytest.param("rc", lambda rows: rows[1].pop("answer"), "rc row 1 has no 'answer'",
                 id="rc-row-without-answer"),
    bad_field("judgment-criminal", "charges", ["盗窃罪"], LABEL_IDS, "charge-names"),
    bad_field("judgment-criminal", "penalty_months", -5, "a finite number >= 0",
              "negative-penalty"),
    bad_field("judgment-civil", "cause", -1, LABEL_ID, "cause-ignore-index"),
    bad_field("judgment-civil", "cause", True, LABEL_ID, "cause-bool"),
    bad_field("rc", "answer_type", "maybe", "one of span, yes, no, unanswerable",
              "rc-answer-type"),
    bad_field("rc", "context", [], "a string or a list of strings, with at least one sentence",
              "rc-no-sentences"),
    bad_field("rc", "context", [" ", "\u3000"],
              "a string or a list of strings, with at least one sentence", "rc-blank-sentences"),
    pytest.param("rc", lambda rows: rows[1].update(answer="不在文中", answer_type="span"),
                 "rc row 1: a span 'answer' must be in the first 93 tokens of its context, "
                 'got "不在文中"', id="rc-span-not-in-context"),
    # the default rc encoder keeps 160 - 64 - 3 = 93 context tokens
    pytest.param("rc", lambda rows: rows[1].update(context=["甲" * 93 + "乙。"], answer="乙",
                                                   answer_type="span", support=[1]),
                 "rc row 1: a span 'answer' must be in the first 93 tokens of its context, "
                 'got "乙"', id="rc-span-cut-off"),
    bad_field("retrieval", "relevant", "yes", "0 or 1", "relevant-string"),
    bad_field("mcq", "answer_set", ["E"], ANSWER_SET, "mcq-letter-beyond-choices"),
    bad_field("mcq", "choices", ["只有一个"], "a list of 2 to 4 strings", "mcq-one-choice"),
])
def test_finetune_rows_checked_before_anything_is_written(fixture_dir, tmp_path, capsys,
                                                          task, edit, message):
    rows = read_jsonl(task_data(fixture_dir, task))[:3]
    edit(rows)
    data = write_rows(tmp_path / "rows.jsonl", rows)
    out = tmp_path / "ft"
    capsys.readouterr()
    assert run(["finetune", "--task", task, "--data", data, "--out", out, "--steps", 2]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()  # rejected before anything is written


def long_retrieval_pair(rows):
    rows[1]["candidate"] = "案" * 440


def long_mcq_choice(rows):
    rows[1]["question"] = "问" * 70
    rows[1]["choices"][1] = "选" * 70


@pytest.mark.parametrize("task, edit, config, message", [
    # CLS, SEP, SEP and the pair's tokens: 3 + len(query) + 440 > 256
    pytest.param("retrieval", long_retrieval_pair, None, "retrieval row 1: its assembled input "
                 "is {n} tokens, more than the encoder's max_positions 256", id="retrieval"),
    # 3 + 64 (the question limit) + 64 (the choice limit) > 100
    pytest.param("mcq", long_mcq_choice, {"encoder": {"max_positions": 100}},
                 "mcq row 1 choice B: its assembled input is 131 tokens, more than the "
                 "encoder's max_positions 100", id="mcq"),
])
def test_finetune_input_longer_than_the_encoder_writes_nothing(fixture_dir, tmp_path, capsys,
                                                               task, edit, config, message):
    rows = read_jsonl(fixture_dir / "fx" / f"{task}.jsonl")[:3]
    edit(rows)
    data = write_rows(tmp_path / "rows.jsonl", rows)
    argv = ["finetune", "--task", task, "--data", data, "--steps", 1]
    if config is not None:
        vocab = tmp_path / "vocab.txt"
        build_vocab(json.dumps(row, ensure_ascii=False) for row in rows).save(vocab)
        cfg = write_rows(tmp_path / "cfg.json", [config])
        argv += ["--vocab", vocab, "--config", cfg]
    out = tmp_path / "ft"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 1
    n = 3 + len("".join(rows[1].get("query", "").split())) + 440
    assert capsys.readouterr().err == f"error: {message.format(n=n)}\n"
    assert not out.exists()


@pytest.mark.parametrize("max_positions", [64, 67])
def test_finetune_rc_encoder_too_short_for_a_context(fixture_dir, tmp_path, capsys,
                                                     max_positions):
    # rc keeps max_positions - 64 (the question) - 3 (CLS, SEP, SEP) context tokens
    rc = fixture_dir / "fx" / "rc.jsonl"
    vocab = tmp_path / "vocab.txt"
    build_vocab(json.dumps(row, ensure_ascii=False) for row in read_jsonl(rc)).save(vocab)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"encoder": {"max_positions": max_positions}}), encoding="utf-8")
    out = tmp_path / "ft"
    capsys.readouterr()
    assert run(["finetune", "--task", "rc", "--data", rc, "--vocab", vocab, "--config", cfg,
                "--out", out, "--steps", 1]) == 1
    assert capsys.readouterr().err == ("error: an rc encoder needs max_positions of at least "
                                       f"68, got {max_positions}\n")
    assert not out.exists()


def test_finetune_trains_on_an_empty_label_list(fixture_dir, tmp_path):
    # an empty charge set is an all-negative target; fit counts labels by the
    # rule that lctx evaluate uses, which accepts it
    rows = read_jsonl(task_data(fixture_dir, "judgment-criminal"))[:3]
    rows[1]["charges"] = []
    data = write_rows(tmp_path / "rows.jsonl", rows)
    out = tmp_path / "ft"
    assert run(["finetune", "--task", "judgment-criminal", "--data", data, "--out", out,
                "--steps", 2]) == 0
    assert run(["evaluate", "--task", "judgment-criminal", "--pred",
                out / "predictions.jsonl", "--gold", data, "--out", tmp_path / "ev"]) == 0


@pytest.mark.parametrize("task, edit, message", [
    pytest.param("rc", lambda rows: rows.clear(), "no gold rows", id="empty-file"),
    pytest.param("rc", lambda rows: rows[1].pop("answer"), "rc row 1 has no 'answer'",
                 id="rc-row-without-answer"),
    bad_field("judgment-criminal", "charges", "盗窃罪", LABEL_IDS, "charges-string"),
    bad_field("judgment-civil", "cause", True, LABEL_ID, "cause-bool"),
    bad_field("retrieval", "relevant", "yes", "0 or 1", "relevant-string"),
    bad_field("rc", "answer", 5, "a string", "rc-answer-number"),
    bad_field("mcq", "answer_set", "A", ANSWER_SET, "mcq-answer-set-string"),
])
def test_evaluate_gold_rows_checked_before_anything_is_written(fixture_dir, tmp_path, capsys,
                                                               task, edit, message):
    gold = read_jsonl(task_data(fixture_dir, task))[:3]
    pred = write_rows(tmp_path / "pred.jsonl", [dict(row, score=0.5) for row in gold])
    edit(gold)
    out = tmp_path / "ev"
    capsys.readouterr()
    assert run(["evaluate", "--task", task, "--pred", pred,
                "--gold", write_rows(tmp_path / "gold.jsonl", gold), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()  # rejected before anything is written


@pytest.mark.parametrize("task, field, value, want", [
    pytest.param("rc", "answer", 5, "a string", id="rc-answer-number"),
    pytest.param("retrieval", "score", "x", "a finite number", id="retrieval-score-string"),
    pytest.param("judgment-civil", "cause", "a", LABEL_ID, id="cause-string"),
    pytest.param("mcq", "answer_set", "A", "a possibly empty list of the letters A, B, C, D",
                 id="mcq-answer-set-string"),
])
def test_evaluate_prediction_rows_checked_before_anything_is_written(
        fixture_dir, tmp_path, capsys, task, field, value, want):
    gold = write_rows(tmp_path / "gold.jsonl", read_jsonl(task_data(fixture_dir, task))[:3])
    pred = [dict(row, score=0.5) for row in read_jsonl(gold)]
    pred[1][field] = value
    out = tmp_path / "ev"
    capsys.readouterr()
    assert run(["evaluate", "--task", task, "--pred", write_rows(tmp_path / "pred.jsonl", pred),
                "--gold", gold, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {task} prediction row 1: {field!r} must be {want}, "
                   f"got {json.dumps(value)}\n")
    assert not out.exists()  # rejected before anything is written


def test_evaluate_takes_an_empty_predicted_answer_set(fixture_dir, tmp_path):
    gold = write_rows(tmp_path / "gold.jsonl", read_jsonl(task_data(fixture_dir, "mcq"))[:3])
    pred = [dict(row, answer_set=[]) for row in read_jsonl(gold)]
    assert run(["evaluate", "--task", "mcq", "--pred", write_rows(tmp_path / "pred.jsonl", pred),
                "--gold", gold, "--out", tmp_path / "ev"]) == 0


def test_finetune_config_file_overrides(fixture_dir, tmp_path):
    pp = tmp_path / "pp"
    run(["preprocess", "--input", fixture_dir / "fx" / "raw_cases.jsonl",
         "--out", pp, "--seq-len", 48])
    cfg = tmp_path / "task.json"
    cfg.write_text(json.dumps({
        "steps": 3, "lr": 1e-3,
        "encoder": {"n_layers": 1, "n_heads": 2, "hidden_dim": 16, "ffn_dim": 32,
                    "max_positions": 160, "window": 4},
    }), encoding="utf-8")
    ft = tmp_path / "ft"
    assert run(["finetune", "--task", "judgment-civil",
                "--data", pp / "judgment_civil.jsonl", "--vocab", pp / "vocab.txt",
                "--config", cfg, "--out", ft, "--steps", 500]) == 0
    resolved = json.loads((ft / "run.json").read_text())
    assert resolved["steps"] == 3  # the config file wins
    assert sorted(p.name for p in (ft / "model").iterdir()) == [
        "meta.json", "model.ckpt", "vocab.txt"]
    meta = json.loads((ft / "model" / "meta.json").read_text(encoding="utf-8"))
    assert meta["task"] == "judgment-civil" and meta["encoder"]["hidden_dim"] == 16


def test_retrieval_cv_cli(fixture_dir, tmp_path):
    rows_path = fixture_dir / "fx" / "retrieval.jsonl"
    qids = {json.loads(line)["query_id"]
            for line in open(rows_path, encoding="utf-8")}
    plan = FoldPlan.from_query_ids(qids, 2)
    assert all(plan.partitions), "fixture queries must cover both folds"
    out = tmp_path / "cv"
    assert run(["finetune", "--task", "retrieval", "--data", rows_path,
                "--out", out, "--steps", 2, "--lr", 1e-3, "--folds", 2]) == 0
    with open(out / "metrics.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["task"] for r in rows] == ["retrieval-fold0", "retrieval-fold1",
                                         "retrieval-mean"]


def test_retrieval_folds_without_queries_write_nothing(fixture_dir, tmp_path, capsys):
    rows_path = fixture_dir / "fx" / "retrieval.jsonl"
    out = tmp_path / "cv"
    assert run(["finetune", "--task", "retrieval", "--data", rows_path,
                "--out", out, "--steps", 1, "--folds", 50]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "holds no queries" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_evaluate_known_values(tmp_path):
    pred = tmp_path / "pred.jsonl"
    gold = tmp_path / "gold.jsonl"
    pred.write_text('{"answer": "ab"}\n{"answer": "xy"}\n', encoding="utf-8")
    gold.write_text('{"answer": "ab"}\n{"answer": "xz"}\n', encoding="utf-8")
    out = tmp_path / "rc.csv"
    assert run(["evaluate", "--task", "rc", "--pred", pred, "--gold", gold,
                "--out", out]) == 0
    row = next(csv.DictReader(open(out, encoding="utf-8")))
    assert float(row["EM"]) == 0.5
    assert abs(float(row["F1"]) - 0.75) < 1e-9


@pytest.mark.parametrize("out, csv_name", [("new_dir/m.csv", "m.csv"),
                                           ("results", "metrics.csv")])
def test_evaluate_out_file_or_directory(tmp_path, out, csv_name):
    # --out with a suffix is the CSV, run.json beside it; a suffix-less --out
    # is the run directory; missing directories are created
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"answer": "ab"}\n', encoding="utf-8")
    run_dir = tmp_path / ("new_dir" if out.endswith(".csv") else out)
    assert run(["evaluate", "--task", "rc", "--pred", pred, "--gold", pred,
                "--out", tmp_path / out]) == 0
    row = next(csv.DictReader(open(run_dir / csv_name, encoding="utf-8")))
    assert float(row["EM"]) == 1.0
    assert json.loads((run_dir / "run.json").read_text())["task"] == "rc"


def test_benchmark_attention_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["benchmark-attention", "--lengths", "64,128,192",
                "--window", "4", "--n-global", "1", "--heads", "2",
                "--dim", "16", "--out", out]) == 0
    rows = list(csv.DictReader(open(out, encoding="utf-8")))
    assert [r["L"] for r in rows] == ["64", "128", "192"]
    f = [int(r["sparse_flops"]) for r in rows]
    assert f[2] - 2 * f[1] + f[0] == 0  # equally spaced grid: affine
    d = [int(r["dense_flops"]) for r in rows]
    assert d[1] == 4 * d[0] and d[2] == 9 * d[0]
    assert list(rows[0]) == ["L", "sparse_flops", "dense_flops", "sparse_ms", "dense_ms",
                             "sparse_fwdbwd_ms", "dense_fwdbwd_ms"]
    for r in rows:
        assert all(float(r[col]) > 0 for col in list(r)[3:])


def test_benchmark_single_length(tmp_path):
    out = tmp_path / "one.csv"
    assert run(["benchmark-attention", "--lengths", "64", "--dim", "16",
                "--out", out]) == 0
    rows = list(csv.DictReader(open(out, encoding="utf-8")))
    assert len(rows) == 1


@pytest.mark.parametrize("argv, named", [
    pytest.param(["--lengths", "128,64"], "--lengths 128,64", id="descending-lengths"),
    pytest.param(["--lengths", "8192"], "--lengths 8192", id="length-over-max-positions"),
    pytest.param(["--dim", "10", "--heads", "4", "--lengths", "16"], "--dim 10",
                 id="dim-not-divisible-by-heads"),
    pytest.param(["--window", "3", "--lengths", "16"], "--window 3", id="odd-window"),
    pytest.param(["--dilation", "-1", "--lengths", "16"], "--dilation -1",
                 id="negative-dilation"),
    pytest.param(["--heads", "0"], "--heads 0", id="zero-heads"),
    pytest.param(["--heads", "-2"], "--heads -2", id="negative-heads"),
    pytest.param(["--lengths", "0"], "--lengths 0", id="zero-length"),
    pytest.param(["--lengths", ",64"], "--lengths ,64", id="empty-length"),
    pytest.param(["--n-global", "32", "--lengths", "16"], "--n-global 32",
                 id="more-globals-than-the-shortest-length"),
    pytest.param(["--n-global", "-1", "--lengths", "16"], "--n-global -1",
                 id="negative-globals"),
])
def test_benchmark_bad_arguments_rejected(tmp_path, capsys, argv, named):
    assert run(["benchmark-attention", *argv, "--out", tmp_path / "b" / "x.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err
    assert not (tmp_path / "b").exists()  # rejected before anything is written


def test_benchmark_length_over_max_positions_rejected(tmp_path):
    assert run(["benchmark-attention", "--lengths", "64,8192",
                "--out", tmp_path / "x.csv"]) == 1
    assert run(["benchmark-attention", "--lengths", "64", "--max-positions", "64",
                "--dim", "16", "--out", tmp_path / "y.csv"]) == 0


def test_smoke_metric_columns_and_determinism(tmp_path):
    a, b = tmp_path / "s1", tmp_path / "s2"
    assert run(["smoke", "--out", a, "--seed", 11, "--steps", 12]) == 0
    assert run(["smoke", "--out", b, "--seed", 11, "--steps", 12]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    with open(a / "metrics.csv", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    for col in ("Mic@c", "Mac@c", "Mic@l", "Mac@l", "Dis@t", "P@5", "P@10", "P@20",
                "P@30", "NDCG@5", "NDCG@10", "NDCG@20", "NDCG@30", "MAP", "EM", "F1",
                "single", "all"):
        assert col in header
    assert (a / "run.json").exists()


def test_smoke_writes_stage_times(tmp_path):
    out = tmp_path / "s"
    assert run(["smoke", "--out", out, "--seed", 2, "--steps", 1]) == 0
    with open(out / "stages.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["stage"] for r in rows] == [
        "fixtures", "preprocess", "pretrain", "finetune-judgment-criminal",
        "finetune-judgment-civil", "finetune-retrieval", "finetune-rc", "finetune-mcq",
        "evaluate"]
    assert all(float(r["wall_s"]) > 0 and float(r["peak_rss_mib"]) > 0 for r in rows)


def test_threads_env_fallback(tmp_path, monkeypatch):
    # LCTX_THREADS caps the BLAS pool for the command: run.json holds the
    # count read back from the library, and main restores the previous count
    calls = _openblas()
    before = calls[0]() if calls else None
    cap = 1 if before != 1 else 2  # differs from the current count
    monkeypatch.setenv("LCTX_THREADS", str(cap))
    out = tmp_path / "bench.csv"
    assert run(["benchmark-attention", "--lengths", "64", "--dim", "16",
                "--out", out]) == 0
    resolved = json.loads((tmp_path / "run.json").read_text())
    assert resolved["threads"] == cap
    if calls is None:
        assert resolved["blas_threads"] is None  # unknown, not claimed
    else:
        assert resolved["blas_threads"] == cap
        assert calls[0]() == before


def test_run_json_records_the_malloc_thresholds(tmp_path):
    # main raises glibc's mmap and trim thresholds for every command; where
    # the C library is not glibc nothing is set and run.json says null
    out = tmp_path / "bench.csv"
    assert run(["benchmark-attention", "--lengths", "64", "--dim", "16",
                "--out", out]) == 0
    resolved = json.loads((tmp_path / "run.json").read_text())
    if platform.libc_ver()[0] == "glibc":
        assert resolved["malloc_thresholds"] == MALLOC_THRESHOLDS
    else:
        assert resolved["malloc_thresholds"] is None
