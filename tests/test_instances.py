import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpt import instances, kernels, serialize
from bpt.corpus import Document, Origin, Shard
from bpt.errors import InstanceError
from bpt.instances import (
    GenerationReport,
    InstanceConfig,
    PretrainInstance,
    create_instances_from_documents,
    generate_conventional,
    generate_simpt,
    mask_tokens,
    pair_diversity,
    split_documents,
    structural_errors,
)
from bpt.rng import SplitRng
from bpt.serialize import write_instances
from bpt.tokenizer import WordPieceTokenizer
from bpt.verify import verify_file
from bpt.vocab import SPECIAL_TOKENS, Vocabulary

from .oracles import structural_errors_oracle

# word-level vocabulary: every word is a whole token, so sentence token count
# equals word count and lengths are easy to reason about
WORDS = [f"w{i}" for i in range(120)]
VOCAB = Vocabulary(SPECIAL_TOKENS + WORDS)
TOKENIZER = WordPieceTokenizer(VOCAB)


def doc(doc_id, origin, sentence_lengths, word_offset=0):
    sentences = []
    w = word_offset
    for n in sentence_lengths:
        sentences.append(" ".join(WORDS[(w + i) % len(WORDS)] for i in range(n)))
        w += n
    return Document(doc_id, origin, sentences)


def config(**kw):
    return InstanceConfig(**{"max_seq_length": 32, "master_seed": 7, **kw})


def unmasked_ids(inst: PretrainInstance) -> list[int]:
    ids = inst.token_ids.copy()
    ids[inst.masked_positions] = inst.masked_labels
    return ids.tolist()


def segment_pair_key(inst: PretrainInstance) -> tuple:
    ids = unmasked_ids(inst)
    seps = [i for i, t in enumerate(ids) if t == VOCAB.sep_id]
    return tuple(ids[1 : seps[0]]), tuple(ids[seps[0] + 1 : seps[1]])


# --- mask_tokens -----------------------------------------------------------


def test_mask_all_special_sequence_masks_nothing():
    ids = [VOCAB.cls_id, VOCAB.sep_id, VOCAB.sep_id]
    masked, pos, labels = mask_tokens(ids, [0, 1, 2], VOCAB, config(), SplitRng(1))
    assert pos.size == 0 and labels.size == 0
    assert masked.tolist() == ids


def test_mask_golden_values_frozen():
    ids = list(range(5, 25))
    masked, pos, labels = mask_tokens(ids, [0, 10, 19], VOCAB, config(master_seed=42), SplitRng(42))
    assert pos.tolist() == [6, 7, 9]
    assert labels.tolist() == [11, 12, 14]
    assert masked.tolist() == [5, 6, 7, 8, 9, 10, 4, 4, 13, 4, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24]


def test_mask_monte_carlo_rates():
    big_vocab = Vocabulary(SPECIAL_TOKENS + [f"t{i}" for i in range(3000)])
    cfg = InstanceConfig(max_seq_length=1024, max_predictions_per_seq=200, master_seed=0)
    rng = SplitRng(99)
    lengths_rng = SplitRng(100)
    candidates = masked_total = 0
    n_mask = n_random = n_unchanged = 0
    while candidates < 1_000_000:
        n = lengths_rng.randint(300, 700)
        ids = [5 + lengths_rng.randrange(3000) for _ in range(n)]
        special = [0, n - 1]
        masked, pos, labels = mask_tokens(ids, special, big_vocab, cfg, rng)
        candidates += n - 2
        masked_total += len(pos)
        for p, label in zip(pos, labels):
            token = int(masked[p])
            if token == big_vocab.mask_id:
                n_mask += 1
            elif token == int(label):
                n_unchanged += 1
            else:
                n_random += 1
    rate = masked_total / candidates
    assert 0.147 <= rate <= 0.153
    assert abs(n_mask / masked_total - 0.80) <= 0.005
    assert abs(n_random / masked_total - 0.10) <= 0.004
    assert abs(n_unchanged / masked_total - 0.10) <= 0.004


def test_mask_count_rule_and_bounds():
    cfg = config(max_predictions_per_seq=4)
    ids = list(range(5, 45))  # 40 tokens
    masked, pos, labels = mask_tokens(ids, [0, 39], VOCAB, cfg, SplitRng(3))
    assert len(pos) == 4  # round(0.15*38)=6 capped at 4
    assert np.all(np.diff(pos) > 0)
    assert not {0, 39} & set(pos.tolist())
    original = np.asarray(ids)
    assert np.array_equal(labels, original[pos])


# --- create_instances_from_documents ----------------------------------------


def test_two_single_sentence_docs_produce_negatives_only():
    docs = [
        doc("a#0", Origin.SMALL, [5]),
        doc("b#0", Origin.LARGE, [5], word_offset=50),
    ]
    insts = create_instances_from_documents(docs, TOKENIZER, config(), SplitRng(0))
    assert insts, "two one-sentence documents always pair negatively"
    for inst in insts:
        assert inst.is_next is False
        assert inst.doc_id_a != inst.doc_id_b


def test_positive_segment_b_follows_segment_a():
    d = doc("solo#0", Origin.SMALL, [4, 4])
    for seed in range(40):
        insts = create_instances_from_documents([d], TOKENIZER, config(master_seed=seed), SplitRng(seed))
        if insts:
            inst = insts[0]
            assert inst.is_next is True
            a, b = segment_pair_key(inst)
            sent_ids = [TOKENIZER.tokenize(s).ids for s in d.sentences]
            assert list(a) == sent_ids[0]
            assert list(b) == sent_ids[1]
            return
    pytest.fail("no positive instance found over 40 seeds")


def test_single_document_negatives_skipped_and_reported():
    d = doc("solo#0", Origin.SMALL, [3] * 20)
    skipped_anywhere = 0
    for seed in range(6):
        report = GenerationReport()
        insts = create_instances_from_documents(
            [d], TOKENIZER, config(), SplitRng(seed), report=report
        )
        assert all(i.is_next for i in insts)
        assert report.positives == len(insts)
        skipped_anywhere += report.skipped_negatives
    assert skipped_anywhere > 0


def test_structural_invariants_over_random_corpora():
    rng = SplitRng(77)
    for trial in range(12):
        docs = []
        for d_i in range(rng.randint(2, 6)):
            lengths = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
            docs.append(doc(f"d{trial}#{d_i}", Origin.SMALL if d_i % 2 else Origin.LARGE, lengths))
        cfg = InstanceConfig(max_seq_length=rng.randint(8, 48), master_seed=trial)
        insts = create_instances_from_documents(docs, TOKENIZER, cfg, SplitRng(trial))
        for inst in insts:
            assert structural_errors(inst, VOCAB, cfg.max_seq_length) == []
            # truncation keeps at least one token per segment
            a, b = segment_pair_key(inst)
            assert len(a) >= 1 and len(b) >= 1


def test_origin_token_accounting():
    docs = [doc("s#0", Origin.SMALL, [4] * 8), doc("l#0", Origin.LARGE, [4] * 8, word_offset=40)]
    insts = create_instances_from_documents(docs, TOKENIZER, config(), SplitRng(2))
    for inst in insts:
        assert inst.origin_small_tokens + inst.origin_large_tokens == len(inst.token_ids) - 3
        a, b = segment_pair_key(inst)
        small_expected = 0
        if inst.doc_id_a == "s#0":
            small_expected += len(a)
        if inst.doc_id_b == "s#0":
            small_expected += len(b)
        assert inst.origin_small_tokens == small_expected


def test_determinism_same_seed_same_instances():
    docs = [doc(f"d#{i}", Origin.SMALL, [3, 4, 5, 6]) for i in range(4)]
    a = create_instances_from_documents(docs, TOKENIZER, config(), SplitRng(9))
    b = create_instances_from_documents(docs, TOKENIZER, config(), SplitRng(9))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.payload() == y.payload()


def test_empty_docs_arg_is_fatal():
    with pytest.raises(InstanceError):
        create_instances_from_documents([], TOKENIZER, config(), SplitRng(0))


def well_formed():
    """[CLS] w0 w1 [SEP] w2 [SEP] with w0 masked; all three tokens small-origin."""
    w = [VOCAB.id_of(t) for t in WORDS[:3]]
    return PretrainInstance(
        token_ids=np.array([VOCAB.cls_id, w[0], w[1], VOCAB.sep_id, w[2], VOCAB.sep_id], np.int32),
        segment_ids=np.array([0, 0, 0, 0, 1, 1], np.int8),
        masked_positions=np.array([1], np.int64),
        masked_labels=np.array([w[0]], np.int32),
        is_next=True,
        origin_small_tokens=3,
        origin_large_tokens=0,
    )


def broken(**changes):
    inst = well_formed()
    for name, value in changes.items():
        if name.startswith("token_"):
            inst.token_ids[int(name[6:])] = value
        else:
            setattr(inst, name, value)
    return inst


@pytest.mark.parametrize(
    "inst, expected",
    [
        (well_formed(), []),
        (broken(token_0=VOCAB.id_of("w9")), ["first token is not [CLS]"]),
        (broken(token_3=VOCAB.id_of("w9")), ["expected exactly 2 [SEP], found 1"]),
        (broken(token_2=VOCAB.sep_id), ["expected exactly 2 [SEP], found 3"]),
        (broken(masked_positions=np.array([3], np.int64)),
         ["masked position 3 points at [CLS]/[SEP]"]),
        (broken(masked_positions=np.array([0, 6], np.int64), masked_labels=np.array([1, 1], np.int32)),
         ["masked position 0 points at [CLS]/[SEP]", "masked position 6 out of range"]),
        (broken(segment_ids=np.array([0, 1, 0, 0, 1, 1], np.int8)),
         ["segment_ids are not a non-decreasing 0/1 sequence"]),
        (broken(origin_small_tokens=2), ["origin token counts do not sum to non-special token count"]),
    ],
)
def test_structural_errors_exact_messages(inst, expected):
    assert structural_errors(inst, VOCAB, 32) == expected


def test_structural_errors_all_at_once_in_order():
    inst = broken(token_0=VOCAB.sep_id, token_1=VOCAB.size, segment_ids=np.array([1, 1], np.int8),
                  masked_positions=np.array([0, 5, 7], np.int64), origin_large_tokens=1)
    assert structural_errors(inst, VOCAB, 5) == [
        "length 6 exceeds max_seq_length 5",
        "segment_ids length differs from token_ids",
        "first token is not [CLS]",
        "expected exactly 2 [SEP], found 3",
        "segment_ids are not a non-decreasing 0/1 sequence",
        "masked_positions and masked_labels differ in length",
        "masked position 0 points at [CLS]/[SEP]",
        "masked position 5 points at [CLS]/[SEP]",
        "masked position 7 out of range",
        "origin token counts do not sum to non-special token count",
        "token id out of vocabulary range",
    ]


MUTATIONS = ("first_token", "sep_count", "seg_decrease", "seg_two", "seg_count", "mask_special",
             "mask_out_of_range", "label_count", "origin_sum", "id_below_zero", "id_at_vocab_size",
             "no_mask", "empty", "too_long")


def mutated_instance(len_a, len_b, seed, mutations):
    """A well-formed [CLS] a [SEP] b [SEP] instance with `mutations`, a list
    of (name, k) pairs, applied in order; k picks the index or variant.
    Returns the instance and the max_seq_length to check it against."""
    gen = np.random.default_rng(seed)
    ids = np.concatenate([[VOCAB.cls_id], gen.integers(VOCAB.n_special, VOCAB.size, len_a), [VOCAB.sep_id],
                          gen.integers(VOCAB.n_special, VOCAB.size, len_b), [VOCAB.sep_id]]).astype(np.int32)
    segs = (np.arange(ids.size) >= len_a + 2).astype(np.int8)
    words = [p for p in range(1, ids.size - 1) if p != len_a + 1]
    positions = np.sort(gen.choice(words, gen.integers(1, len(words) + 1), replace=False)).astype(np.int64)
    small = int(gen.integers(0, len_a + len_b + 1))
    inst = PretrainInstance(ids, segs, positions, ids[positions], True, small, len_a + len_b - small)
    max_seq_length = 64
    for name, k in mutations:
        n = len(inst.token_ids)
        n_segs = len(inst.segment_ids)  # differs from n after "seg_count"
        seps = np.flatnonzero(inst.token_ids == VOCAB.sep_id)
        if name == "first_token" and n:
            inst.token_ids[0] = VOCAB.n_special + k % len(WORDS)
        elif name == "sep_count" and n:
            if k % 3 == 2:  # a third [SEP]
                inst.token_ids[k % n] = VOCAB.sep_id
            else:  # none, or one of the two
                inst.token_ids[seps[k % 3 :]] = VOCAB.n_special
        elif name == "seg_decrease" and n_segs >= 2:
            i = 1 + k % (n_segs - 1)
            inst.segment_ids[i - 1 : i + 1] = (1, 0)
        elif name == "seg_two" and n_segs:
            inst.segment_ids[k % n_segs] = 2
        elif name == "seg_count":
            inst.segment_ids = inst.segment_ids[:-1] if k % 2 else np.append(inst.segment_ids, 1).astype(np.int8)
        elif name == "mask_special":
            at = [0, *seps.tolist()][k % (1 + len(seps))]
            inst.masked_positions = np.append(inst.masked_positions, at)
            inst.masked_labels = np.append(inst.masked_labels, 5).astype(np.int32)
        elif name == "mask_out_of_range":
            at = -1 - k % 3 if k % 2 else n + k % 3
            inst.masked_positions = np.append(inst.masked_positions, at)
            inst.masked_labels = np.append(inst.masked_labels, 5).astype(np.int32)
        elif name == "label_count":
            labels = inst.masked_labels
            inst.masked_labels = labels[:-1] if k % 2 and labels.size else np.append(labels, 5).astype(np.int32)
        elif name == "origin_sum":
            inst.origin_small_tokens += 1 + k % 2
        elif name == "id_below_zero" and n:
            inst.token_ids[k % n] = -1 - k % 5
        elif name == "id_at_vocab_size" and n:
            inst.token_ids[k % n] = VOCAB.size + k % 5
        elif name == "no_mask":
            inst.masked_positions = np.empty(0, np.int64)
            inst.masked_labels = np.empty(0, np.int32)
        elif name == "empty":
            inst = PretrainInstance(np.empty(0, np.int32), np.empty(0, np.int8), np.empty(0, np.int64),
                                    np.empty(0, np.int32), False, 0, 0)
        elif name == "too_long":
            max_seq_length = max(0, n - 1 - k % 3)
    return inst, max_seq_length


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 1000)), max_size=4))
@example(3, 2, 0, [])
@example(1, 1, 1, [("empty", 0)])
@example(4, 4, 2, [("sep_count", 0), ("seg_two", 3), ("mask_out_of_range", 1), ("id_below_zero", 0)])
@example(1, 4, 0, [("seg_count", 1), ("seg_decrease", 706)])
@example(1, 1, 0, [("seg_count", 1), ("seg_two", 3)])
def test_structural_errors_equal_per_rule_oracle(len_a, len_b, seed, mutations):
    inst, max_seq_length = mutated_instance(len_a, len_b, seed, mutations)
    expected = structural_errors_oracle(inst, VOCAB, max_seq_length)
    assert structural_errors(inst, VOCAB, max_seq_length) == expected
    if not mutations:
        assert expected == []
    # in a batch, each record's messages come from its own fields only; the
    # well-formed neighbours break no rule unless "too_long" shortened the limit
    before, _ = mutated_instance(len_a + 1, len_b, seed + 1, [])
    after, _ = mutated_instance(len_a, len_b + 1, seed + 2, [])
    neighbours = [structural_errors_oracle(other, VOCAB, max_seq_length) for other in (before, after)]
    if max_seq_length == 64:
        assert neighbours == [[], []]
    assert structural_errors([before, inst, after], VOCAB, max_seq_length) == [neighbours[0], expected, neighbours[1]]


# --- generate_simpt ---------------------------------------------------------


def make_shards(prefix, origin, n_shards, docs_per_shard=2, word_offset=0):
    shards = []
    for s in range(n_shards):
        docs = [
            doc(f"{prefix}#{s}.{k}", origin, [4, 4, 4], word_offset=word_offset)
            for k in range(docs_per_shard)
        ]
        shards.append(Shard(s, origin, docs, target_bytes=1))
    return shards


def test_simpt_zero_rounds_empty():
    stream, report = generate_simpt(
        make_shards("s", Origin.SMALL, 3),
        make_shards("l", Origin.LARGE, 3, word_offset=60),
        TOKENIZER,
        config(n_rounds=0),
    )
    assert list(stream) == []
    assert report.instances == 0


def test_simpt_requires_shards():
    with pytest.raises(InstanceError):
        generate_simpt([], make_shards("l", Origin.LARGE, 2), TOKENIZER, config(n_rounds=1))


def test_simpt_balance_and_cross_origin_negatives():
    small = make_shards("s", Origin.SMALL, 4)
    large = make_shards("l", Origin.LARGE, 40, word_offset=60)
    cfg = config(n_rounds=30, shards_per_corpus=4, master_seed=11)
    stream, report = generate_simpt(small, large, TOKENIZER, cfg)
    insts = list(stream)
    assert report.rounds == 30
    frac = report.small_origin_fraction
    assert 0.4 < frac < 0.6  # equal shard counts per round
    cross = [
        i for i in insts
        if not i.is_next and i.doc_id_a.split("#")[0] != i.doc_id_b.split("#")[0]
    ]
    assert cross, "negatives must be able to pair small-origin with large-origin docs"


def test_simpt_with_replacement_when_too_few_shards():
    small = make_shards("s", Origin.SMALL, 2)
    large = make_shards("l", Origin.LARGE, 2, word_offset=60)
    cfg = config(n_rounds=2, shards_per_corpus=5)
    stream, report = generate_simpt(small, large, TOKENIZER, cfg)
    assert list(stream)
    assert report.instances > 0


def test_simpt_threads_do_not_change_output():
    small = make_shards("s", Origin.SMALL, 4)
    large = make_shards("l", Origin.LARGE, 6, word_offset=60)
    cfg = config(n_rounds=8, shards_per_corpus=3, master_seed=5)
    seq = [i.payload() for i in generate_simpt(small, large, TOKENIZER, cfg, threads=1)[0]]
    par = [i.payload() for i in generate_simpt(small, large, TOKENIZER, cfg, threads=4)[0]]
    assert seq == par


def test_simpt_collisions_counted():
    small = make_shards("s", Origin.SMALL, 1)
    large = make_shards("l", Origin.LARGE, 1, word_offset=60)
    cfg = config(n_rounds=3, shards_per_corpus=1)
    stream, report = generate_simpt(small, large, TOKENIZER, cfg)
    list(stream)
    assert report.shard_combo_collisions == 2  # single possible combination


def test_simpt_counts_an_empty_document_on_every_visit():
    # one shard per corpus, drawn twice a round with replacement: every
    # document is visited 2 * n_rounds times
    empty = Document("s#empty", Origin.SMALL, ["\u200b"])  # tokenizes to nothing
    small = [Shard(0, Origin.SMALL, [empty, doc("s#0", Origin.SMALL, [4, 4, 4])], target_bytes=1)]
    large = make_shards("l", Origin.LARGE, 1, word_offset=60)
    stream, report = generate_simpt(small, large, TOKENIZER, config(n_rounds=3, shards_per_corpus=2))
    insts = list(stream)
    assert report.empty_documents == report.to_dict()["empty_documents"] == 2 * 3
    assert insts and report.instances == len(insts)


@pytest.mark.parametrize("mode", ["simpt", "conventional"])
def test_stream_records_each_instance_as_it_is_yielded(mode):
    small = make_shards("s", Origin.SMALL, 3)
    large = make_shards("l", Origin.LARGE, 3, word_offset=60)
    if mode == "simpt":
        stream, report = generate_simpt(small, large, TOKENIZER, config(n_rounds=2, shards_per_corpus=2))
    else:
        docs = [d for shard in small + large for d in shard.documents]
        stream, report = generate_conventional(docs, TOKENIZER, config(dupe_factor=2))
    next(stream)
    assert report.instances == 1
    assert report.instances + sum(1 for _ in stream) > 1


# --- generate_conventional ---------------------------------------------------


def corpus_docs(n_docs=6, origin=Origin.SMALL):
    return [doc(f"c#{i}", origin, [4, 5, 3, 6]) for i in range(n_docs)]


def test_split_documents_contiguous_cover():
    docs = corpus_docs(7)
    groups = split_documents(docs, 3)
    assert [len(g) for g in groups] == [3, 2, 2]
    assert [d for g in groups for d in g] == docs


def test_conventional_dupe_factor_multiplies_instances():
    docs = corpus_docs()
    base_cfg = config(dupe_factor=1, n_splits=2, master_seed=3)
    dupe_cfg = config(dupe_factor=2, n_splits=2, master_seed=3)
    ones = list(generate_conventional(docs, TOKENIZER, base_cfg)[0])
    twos = list(generate_conventional(docs, TOKENIZER, dupe_cfg)[0])
    assert len(twos) == 2 * len(ones)

    def multiset(insts):
        from collections import Counter

        return Counter(segment_pair_key(i) for i in insts)

    assert multiset(twos) == multiset(ones) + multiset(ones)
    # the second pass re-masks the same pairs differently: new full payloads
    # appear beyond those of the single pass
    assert {i.payload() for i in twos} > {i.payload() for i in ones}


def test_conventional_first_pass_is_prefix_of_dupe_run():
    docs = corpus_docs()
    ones = list(generate_conventional(docs, TOKENIZER, config(dupe_factor=1, master_seed=3))[0])
    twos = list(generate_conventional(docs, TOKENIZER, config(dupe_factor=2, master_seed=3))[0])
    assert [i.payload() for i in twos[: len(ones)]] == [i.payload() for i in ones]


def test_conventional_single_doc_single_group():
    report_stream, report = generate_conventional(
        [doc("only#0", Origin.SMALL, [3] * 10)], TOKENIZER, config()
    )
    insts = list(report_stream)
    assert all(i.is_next for i in insts)
    assert report.skipped_negatives > 0


def test_conventional_negative_partners_confined_to_group():
    docs = corpus_docs(8)
    cfg = config(n_splits=4, master_seed=2)
    insts = list(generate_conventional(docs, TOKENIZER, cfg)[0])
    groups = split_documents(docs, 4)
    group_of = {d.doc_id: g for g, docs_g in enumerate(groups) for d in docs_g}
    for inst in insts:
        if not inst.is_next:
            assert group_of[inst.doc_id_a] == group_of[inst.doc_id_b]


# --- pair_diversity ----------------------------------------------------------


def test_pair_diversity_zero_when_all_positive():
    insts = [
        PretrainInstance(
            token_ids=np.array([VOCAB.cls_id, 5, VOCAB.sep_id, 6, VOCAB.sep_id], np.int32),
            segment_ids=np.array([0, 0, 0, 1, 1], np.int8),
            masked_positions=np.array([1], np.int64),
            masked_labels=np.array([5], np.int32),
            is_next=True,
            origin_small_tokens=2,
            origin_large_tokens=0,
            doc_id_a="a",
            doc_id_b="a",
        )
    ]
    assert pair_diversity(insts) == 0


def test_pair_diversity_single_possible_pair():
    docs = [doc("a#0", Origin.SMALL, [5]), doc("b#0", Origin.LARGE, [5], word_offset=50)]
    insts = create_instances_from_documents(docs, TOKENIZER, config(), SplitRng(0))
    assert insts and all(not i.is_next for i in insts)
    assert pair_diversity(insts) == 1


def test_simpt_beats_conventional_diversity_on_toy_corpora():
    small_docs = [doc(f"s#{i}", Origin.SMALL, [4] * 6) for i in range(8)]
    large_docs = [doc(f"l#{i}", Origin.LARGE, [4] * 6, word_offset=60) for i in range(8)]
    small_shards = [Shard(i, Origin.SMALL, [d], 1) for i, d in enumerate(small_docs)]
    large_shards = [Shard(i, Origin.LARGE, [d], 1) for i, d in enumerate(large_docs)]
    simpt_cfg = config(n_rounds=12, shards_per_corpus=3, master_seed=1)
    simpt = list(generate_simpt(small_shards, large_shards, TOKENIZER, simpt_cfg)[0])
    conv_cfg = config(dupe_factor=max(1, len(simpt) // 40), n_splits=4, master_seed=1)
    conv = list(generate_conventional(small_docs + large_docs, TOKENIZER, conv_cfg)[0])
    assert pair_diversity(simpt) > pair_diversity(conv)


def _written_outputs(directory):
    """Bytes of a simpt run, a conventional run with dupe_factor 3 and a
    rotated conventional run, each instance file and manifest by name, and
    the `verify_file` report of each run."""
    directory.mkdir()
    simpt_cfg = config(n_rounds=5, shards_per_corpus=3, master_seed=5)
    conv_cfg = config(dupe_factor=3, n_splits=2, master_seed=5)
    small, large = make_shards("s", Origin.SMALL, 4), make_shards("l", Origin.LARGE, 6, word_offset=60)
    runs = [
        ("simpt", generate_simpt(small, large, TOKENIZER, simpt_cfg), simpt_cfg, None),
        ("conventional", generate_conventional(corpus_docs(), TOKENIZER, conv_cfg), conv_cfg, None),
        ("rotated", generate_conventional(corpus_docs(), TOKENIZER, conv_cfg), conv_cfg, 1500),
    ]
    verified = {}
    for name, (stream, report), cfg, limit in runs:
        write_instances(stream, directory / f"{name}.bin", VOCAB, cfg, statistics=report.to_dict,
                        max_file_bytes=limit)
        verified[name] = verify_file(directory / f"{name}.bin", VOCAB).to_dict()
        verified[name].pop("path")
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}, verified


@pytest.mark.parametrize("rows", [1, 3])
def test_mask_batch_size_changes_no_bytes(tmp_path, monkeypatch, rows):
    expected = _written_outputs(tmp_path / "default")
    masked, checked = [], []
    mask_sequence, check = kernels.mask_sequence, serialize.structural_errors

    def counted_mask(ids, *args):
        masked.append(len(ids))
        return mask_sequence(ids, *args)

    def counted_check(batch, *args):
        checked.append(len(batch))
        return check(batch, *args)

    monkeypatch.setattr(kernels, "mask_sequence", counted_mask)
    monkeypatch.setattr(serialize, "structural_errors", counted_check)
    monkeypatch.setattr(instances, "_BATCH_CELLS", rows * config().max_seq_length)
    assert _written_outputs(tmp_path / "batched") == expected
    assert max(masked) == rows and len(masked) > 3 * rows
    assert max(checked) == rows and len(checked) > 3 * rows  # the writer's batches
    assert "rotated.bin.00001" in expected[0]


# --- config validation -------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        {"masked_lm_prob": 0.0},
        {"masked_lm_prob": 1.0},
        {"max_predictions_per_seq": 0},
        {"max_seq_length": 7},
        {"dupe_factor": 0},
        {"n_rounds": -1},
        {"n_splits": 0},
        {"shards_per_corpus": 0},
        {"max_seq_length": 65536},
    ],
)
def test_config_validation(kw):
    with pytest.raises(InstanceError):
        InstanceConfig(**kw).validate()
