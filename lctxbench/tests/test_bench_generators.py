import generators
from lctx.tasks import retrieval_input
from lctx.vocab import build_vocab


def test_generators_are_pure_functions_of_the_seed():
    assert generators.pretrain_cases(3) == generators.pretrain_cases(3)
    assert generators.pretrain_cases(3) != generators.pretrain_cases(4)
    assert generators.finetune_fixtures(3) == generators.finetune_fixtures(3)
    assert generators.finetune_fixtures(3) != generators.finetune_fixtures(4)
    assert generators.retrieval_pools(3) == generators.retrieval_pools(3)
    assert generators.retrieval_pools(3) != generators.retrieval_pools(4)


def test_retrieval_pools_reach_the_paper_shapes():
    for seed in range(3):
        vocab = build_vocab(generators.retrieval_vocab_texts(seed))
        shapes = set()
        for pool in generators.retrieval_pools(seed):
            assert len({row["query_id"] for row in pool}) == 1
            assert {row["relevant"] for row in pool} == {0, 1}
            for row in pool:
                enc = retrieval_input(vocab.transform(row["query"]),
                                      vocab.transform(row["candidate"]), "long")
                assert 1 not in enc.ids  # every character is in the vocabulary
                shapes.add((len(enc), len(enc.global_positions)))
        assert max(shapes) == (3584, 510)
        # lengths and global counts spread across the range
        assert len({length for length, _ in shapes}) >= 12
        assert len({g for _, g in shapes}) == len(generators.QUERY_CHARS)
        assert min(shapes)[0] < 512
