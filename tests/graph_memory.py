"""The bytes a graph keeps for backward, and what one MLM step at the
paper's shape keeps and peaks at.

kept_bytes(root) walks the graph that ends at `root` before backward() runs:
every node's data plus every array that a backward closure holds (an array,
or one inside a list or tuple), each distinct base buffer counted once, so a
view costs nothing beyond the buffer it views. Parameters, the leaves that
require grad, are left out: they outlive the step.

    PYTHONPATH=src python tests/graph_memory.py [--layers 1,2,3]

runs one MLM step (encode, MLM head, loss, backward) of Lawformer's shape,
B=1, L=4096, H=768, 12 heads, FFN 3072, w=512, vocabulary 8000, 15 % of the
positions masked, for each layer count and for two paths: `rows`, the last
layer at the masked rows only, as pretraining runs it, and `full`, every
row of the last layer, then the masked rows. Each step runs in a process
of its own, which prints the kept MiB (in all and per layer) and its peak
RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys

import numpy as np

from lctx import tensor as T
from lctx.attention import AttentionPattern
from lctx.encoder import Encoder, EncoderConfig

MIB = 1 << 20
PAPER = dict(length=4096, hidden_dim=768, n_heads=12, ffn_dim=3072, window=512,
             vocab_size=8000, mask_rate=0.15)


def _base(arr: np.ndarray) -> np.ndarray:
    """The array that owns arr's memory: its chain of bases, through the
    object that np.lib.stride_tricks.as_strided puts between a view and the
    array it views."""
    while True:
        base = arr.base
        if not isinstance(base, np.ndarray):
            base = getattr(base, "base", None)
        if not isinstance(base, np.ndarray):
            return arr
        arr = base


def _cell(cell):
    try:
        return cell.cell_contents
    except ValueError:  # a variable the closure names but that is not bound
        return None


def _closure_arrays(backward):
    stack = [_cell(cell) for cell in backward.__closure__ or ()]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)


def _graph(root: T.Tensor) -> list[T.Tensor]:
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def kept_bytes(root: T.Tensor) -> int:
    """The bytes kept for backward by the graph that ends at `root`."""
    nodes = _graph(root)
    # parameters count as already seen
    counted = {id(_base(n.data)) for n in nodes if n._backward is None and n.requires_grad}
    total = 0
    for node in nodes:
        closure = _closure_arrays(node._backward) if node._backward is not None else ()
        for arr in (node.data, *closure):
            base = _base(arr)
            if id(base) not in counted:
                counted.add(id(base))
                total += base.nbytes
    return total


def mlm_step_graph(encoder: Encoder, length: int, mask_rate: float, rows: bool,
                   rng: np.random.Generator) -> T.Tensor:
    """The loss of one MLM step of one sequence of `length` random tokens,
    with about `mask_rate` of them masked: the last layer at the masked
    rows (`rows`) or every row of it, then the masked rows."""
    cfg = encoder.config
    ids = rng.integers(5, cfg.vocab_size, (1, length))
    masked = rng.random((1, length)) < mask_rate
    masked[0, 0] = True
    pattern = AttentionPattern(window=cfg.window)
    if rows:
        hidden = encoder.encode(ids, pattern=pattern, lengths=[length], rows=masked)
    else:
        hidden = T.index_select(encoder.encode(ids, pattern=pattern, lengths=[length]), masked)
    return T.cross_entropy(encoder.mlm_logits(hidden), ids[masked])


def paper_encoder(n_layers: int) -> Encoder:
    return Encoder(EncoderConfig(
        n_layers=n_layers, n_heads=PAPER["n_heads"], hidden_dim=PAPER["hidden_dim"],
        ffn_dim=PAPER["ffn_dim"], vocab_size=PAPER["vocab_size"],
        max_positions=PAPER["length"], window=PAPER["window"]), np.random.default_rng(0))


def _one_step(n_layers: int, path: str) -> dict:
    """One paper-shape MLM step in this process: kept bytes, then backward."""
    encoder = paper_encoder(n_layers)
    loss = mlm_step_graph(encoder, PAPER["length"], PAPER["mask_rate"], path == "rows",
                          np.random.default_rng(1))
    kept = kept_bytes(loss)
    loss.backward()
    return {"layers": n_layers, "path": path, "kept_mib": kept / MIB,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--layers", default="1,2,3")
    p.add_argument("--one", nargs=2, metavar=("LAYERS", "PATH"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one:
        print(json.dumps(_one_step(int(args.one[0]), args.one[1])))
        return 0
    print("layers path  kept_mib  kept_mib_per_layer  peak_rss_mib")
    for n_layers in (int(x) for x in args.layers.split(",")):
        for path in ("rows", "full"):
            out = subprocess.run([sys.executable, __file__, "--one", str(n_layers), path],
                                 check=True, capture_output=True, text=True).stdout
            r = json.loads(out.splitlines()[-1])
            print(f"{n_layers:6d} {path:5s} {r['kept_mib']:9.1f} "
                  f"{r['kept_mib'] / n_layers:19.1f} {r['peak_rss_mib']:13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
