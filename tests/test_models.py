import json
import re
import struct

import numpy as np
import pytest

from gradcheck import fd_grad, rel_err
from oracles import abs_, composed_attention_pool, concat, index_axis, mean_all, mul, slice_last, sub
from test_lstm_sequence import mask_blend_lstm_sequence
from hanst import autodiff as ad
from hanst import models as md
from hanst import training as tr
from hanst.errors import (
    CheckpointMismatchError,
    ConfigurationError,
    DegenerateInputError,
    ShapeMismatchError,
)
from hanst.textprep import PAD_ID, TaggedDocument


def tiny_config(model_kind="han", vocab_size=20, dim=4, hidden=3, head="classify-2",
                dropout=0.0, tagset="none"):
    return md.ModelConfig(model_kind=model_kind, head_kind=head, vocab_size=vocab_size,
                          embedding_dim=dim, bilstm_hidden=hidden, dropout_p=dropout,
                          tagset=tagset)


def doc_of(sentences, doc_id="d", label=None):
    return TaggedDocument(id=doc_id, sentences=sentences,
                          roles=["BODY_TEXT"] * len(sentences),
                          label=label or {"accepted": True})


def batch_of(*sentence_lists):
    return md.pad_batch([doc_of(s, doc_id=f"d{i}") for i, s in enumerate(sentence_lists)])


# ---------------------------------------------------------------------------
# numpy oracles
# ---------------------------------------------------------------------------

def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_step_oracle(x, h, c, cell):
    gates = x @ cell.w_ih.values + cell.b_ih.values + h @ cell.w_hh.values + cell.b_hh.values
    n = cell.hidden
    i = sigmoid(gates[..., :n])
    f = sigmoid(gates[..., n:2 * n])
    g = np.tanh(gates[..., 2 * n:3 * n])
    o = sigmoid(gates[..., 3 * n:4 * n])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


def attention_oracle(states, pool):
    # states [T, D] -> pooled [D], weights [T]
    proj = np.tanh(states @ pool.w.values + pool.b.values)
    scores = (proj @ pool.u.values)[:, 0]
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    return alpha @ states, alpha


def dummy_mask_han_encode(model, batch):
    """`HanModel.encode` before its word level was packed.

    All B*S rows run the word BiLSTM and word attention; padding sentences do
    so under an all-ones mask, and the sentence mask later drops their
    vectors. Both levels use the mask-blend LSTM op and the composed
    attention pool.
    """
    def bilstm(layer, xs, mask):
        fw, bw = (mask_blend_lstm_sequence(xs, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, mask,
                                           reverse=reverse)
                  for cell, reverse in ((layer.fw, False), (layer.bw, True)))
        return concat([fw, bw], axis=2)

    def attend(pool, states, mask):
        return composed_attention_pool(states, pool.w, pool.b, pool.u, mask)

    b, s, t = batch.ids.shape
    token_mask = batch.token_mask.reshape(b * s, t)
    token_mask = np.where((token_mask.sum(axis=1) == 0)[:, None], 1.0, token_mask)
    words = ad.rows(model.embedding, batch.ids.reshape(b * s, t))
    sent_vecs, word_alpha = attend(model.word_attn, bilstm(model.word_bilstm, words, token_mask),
                                   token_mask)
    sent_seq = ad.reshape(sent_vecs, (b, s, 2 * model.config.bilstm_hidden))
    doc, sent_alpha = attend(model.sent_attn, bilstm(model.sent_bilstm, sent_seq, batch.sent_mask),
                             batch.sent_mask)
    word_maps = word_alpha.values.reshape(b, s, t) * batch.sent_mask[:, :, None]
    return doc, word_maps, sent_alpha.values


def ragged_han_batch(seed=0, vocab_size=20):
    """Documents of 1-5 sentences of 1-7 tokens, so the batch pads both ways."""
    rng = np.random.default_rng(seed)
    docs = [[[int(v) for v in rng.integers(2, vocab_size, size=rng.integers(1, 8))]
             for _ in range(int(rng.integers(1, 6)))] for _ in range(5)]
    docs[0].append([3] * 9)   # one sentence longer than every other
    return batch_of(*docs)


class TestPadBatch:
    def test_shapes_and_masks(self):
        batch = batch_of([[2, 3], [4]], [[5, 6, 7]])
        assert batch.ids.shape == (2, 2, 3)
        np.testing.assert_array_equal(batch.token_mask[0, 0], [1, 1, 0])
        np.testing.assert_array_equal(batch.token_mask[0, 1], [1, 0, 0])
        np.testing.assert_array_equal(batch.token_mask[1, 1], [0, 0, 0])
        np.testing.assert_array_equal(batch.sent_mask, [[1, 1], [1, 0]])
        assert (batch.ids[0, 1, 1:] == PAD_ID).all()

    def test_empty_batch_rejected(self):
        with pytest.raises(DegenerateInputError):
            md.pad_batch([])


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_config(model_kind="cnn")
        with pytest.raises(ConfigurationError):
            tiny_config(head="classify-3")
        with pytest.raises(ConfigurationError):
            tiny_config(dropout=1.0)
        with pytest.raises(ConfigurationError):
            tiny_config(tagset="positional")

    def test_task_follows_head(self):
        assert tiny_config(head="classify-2").task == "classify"
        assert tiny_config(head="regress-1").task == "regress"
        for task in ("classify", "regress"):
            assert md.default_model_config("awe", task, 10).task == task

    def test_task_defaults(self):
        c = md.default_model_config("han", "classify", 10002, tagset="full")
        assert (c.embedding_dim, c.bilstm_hidden, c.dropout_p, c.n_outputs) == (50, 256, 0.5, 2)
        r = md.default_model_config("awe", "regress", 10002)
        assert (r.embedding_dim, r.bilstm_hidden, r.dropout_p, r.n_outputs) == (300, 100, 0.2, 1)
        with pytest.raises(ConfigurationError):
            md.default_model_config("awe", "rank", 10002)

    def test_build_model_checks_embeddings_shape(self):
        with pytest.raises(ShapeMismatchError,
                           match=re.escape("embeddings (6, 4) vs configured (6, 3)")):
            md.build_model(tiny_config("awe", vocab_size=6, dim=3), np.random.default_rng(0),
                           embeddings=np.zeros((6, 4)))


class TestAwe:
    def build(self, vocab_size=10, dim=4):
        return md.build_model(tiny_config("awe", vocab_size, dim), np.random.default_rng(0))

    def test_single_token(self):
        m = self.build()
        doc, _, _ = m.encode(batch_of([[3]]))
        np.testing.assert_array_equal(doc.values[0], m.embedding.values[3])

    def test_opposite_embeddings_cancel(self):
        m = self.build()
        m.embedding.values[3] = [1.0, -2.0, 0.5, 4.0]
        m.embedding.values[4] = -m.embedding.values[3]
        doc, _, _ = m.encode(batch_of([[3, 4]]))
        np.testing.assert_allclose(doc.values[0], 0.0, atol=1e-15)

    def test_mean_matches_direct_sum(self):
        m = self.build()
        ids = [7, 2, 9, 2, 5]
        doc, _, _ = m.encode(batch_of([ids[:3], ids[3:]]))
        expected = sum(m.embedding.values[i] for i in ids) / len(ids)
        assert np.abs(doc.values[0] - expected).max() < 1e-12

    def test_word_order_invariant(self):
        m = self.build()
        a, _, _ = m.encode(batch_of([[3, 4, 5], [6, 7]]))
        b, _, _ = m.encode(batch_of([[5, 3, 4], [7, 6]]))
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)


class TestSentAvgBilstm:
    def build(self, dim=4, hidden=3, seed=0):
        return md.build_model(tiny_config("sent_avg_bilstm", 12, dim, hidden),
                              np.random.default_rng(seed))

    def test_word_permutation_invariant(self):
        m = self.build()
        a, _, _ = m.encode(batch_of([[2, 3, 4], [5, 6]]))
        b, _, _ = m.encode(batch_of([[4, 2, 3], [6, 5]]))
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_sentence_permutation_sensitive(self):
        m = self.build()
        a, _, _ = m.encode(batch_of([[2, 3], [4, 5], [6, 7]]))
        b, _, _ = m.encode(batch_of([[6, 7], [4, 5], [2, 3]]))
        assert np.abs(a.values - b.values).max() > 1e-9

    def test_single_sentence_matches_cell_oracle(self):
        m = self.build()
        ids = [2, 5, 7]
        doc, _, _ = m.encode(batch_of([ids]))
        sent_vec = m.embedding.values[ids].mean(axis=0)
        zeros = np.zeros(m.config.bilstm_hidden)
        h_fw, _ = lstm_step_oracle(sent_vec, zeros, zeros, m.sent_bilstm.fw)
        h_bw, _ = lstm_step_oracle(sent_vec, zeros, zeros, m.sent_bilstm.bw)
        expected = np.concatenate([h_fw, h_bw])
        assert np.abs(doc.values[0] - expected).max() < 1e-10

    def test_final_states_bitwise_equal_to_index_and_concat(self):
        # documents of 3, 1 and 2 sentences: the doc vector picks the forward
        # half at the last position and the backward half at the first, as
        # index_axis and concat of the two halves did, values and gradients
        m = self.build(hidden=5)
        batch = batch_of([[2, 3], [4], [5, 6, 7]], [[8, 9]], [[10], [11, 2]])
        up = np.random.default_rng(3).normal(size=(batch.size, 10))

        def composed(model, batch):
            b, s, t = batch.ids.shape
            sent_vecs = md._masked_mean_rows(model.embedding, batch.ids.reshape(b * s, t),
                                             batch.token_mask.reshape(b * s, t))
            states = model.sent_bilstm.run(ad.reshape(sent_vecs, (b, s, 4)), batch.sent_mask)
            final = [index_axis(slice_last(states, 0, 5), s - 1, axis=1),
                     index_axis(slice_last(states, 5, 10), 0, axis=1)]
            return concat(final, axis=1), None, None

        def run(encode):
            for p in m.params.values():
                p.grad = None
            with ad.Tape():
                doc, _, _ = encode(m, batch)
                ad.backward(mean_all(mul(doc, ad.Tensor(up))))
            return doc.values, {n: p.grad for n, p in m.params.items()}

        want, want_grads = run(composed)
        got, got_grads = run(md.SentAvgBilstmModel.encode)
        np.testing.assert_array_equal(got, want)
        for name, expected in want_grads.items():
            np.testing.assert_array_equal(got_grads[name], expected, err_msg=name)


class TestHan:
    def build(self, seed=0, **kw):
        return md.build_model(tiny_config("han", **kw), np.random.default_rng(seed))

    def test_word_attention_sums_to_one(self):
        m = self.build()
        batch = batch_of([[2, 3, 4], [5, 6]], [[7, 8]])
        _, word_alpha, sent_alpha = m.encode(batch)
        for i in range(2):
            for j in range(2):
                if batch.sent_mask[i, j]:
                    assert abs(word_alpha[i, j].sum() - 1.0) <= 1e-9
        assert np.abs(sent_alpha.sum(axis=1) - 1.0).max() <= 1e-9

    def test_identical_sentences_near_uniform_sentence_attention(self):
        # the sentence BiLSTM state evolves across positions, so identical
        # sentences give only approximately uniform attention at small init
        m = self.build()
        _, _, sent_alpha = m.encode(batch_of([[2, 3], [2, 3], [2, 3], [2, 3]]))
        np.testing.assert_allclose(sent_alpha[0], 0.25, atol=0.01)

    def test_identical_sentences_uniform_attention_without_recurrence(self):
        # with the recurrent map zeroed, positionwise states are identical
        # and the symmetry is exact
        m = self.build()
        for cell in (m.sent_bilstm.fw, m.sent_bilstm.bw):
            cell.w_ih.values[:] = 0.0
            cell.w_hh.values[:] = 0.0
        _, _, sent_alpha = m.encode(batch_of([[2, 3], [2, 3], [2, 3], [2, 3]]))
        np.testing.assert_allclose(sent_alpha[0], 0.25, atol=1e-12)

    def test_single_sentence_matches_composed_oracle(self):
        m = self.build()
        ids = [2, 5, 7, 3]
        doc, _, _ = m.encode(batch_of([ids]))

        emb = m.embedding.values[ids]
        h = m.config.bilstm_hidden
        zeros = np.zeros(h)
        fw, state = [], (zeros, zeros)
        for x in emb:
            state = lstm_step_oracle(x, *state, m.word_bilstm.fw)
            fw.append(state[0])
        bw, state = [None] * len(ids), (zeros, zeros)
        for i in reversed(range(len(ids))):
            state = lstm_step_oracle(emb[i], *state, m.word_bilstm.bw)
            bw[i] = state[0]
        word_states = np.stack([np.concatenate([f, b]) for f, b in zip(fw, bw)])
        sent_vec, _ = attention_oracle(word_states, m.word_attn)
        s_fw, _ = lstm_step_oracle(sent_vec, zeros, zeros, m.sent_bilstm.fw)
        s_bw, _ = lstm_step_oracle(sent_vec, zeros, zeros, m.sent_bilstm.bw)
        # one sentence: sentence attention weight is 1
        expected = np.concatenate([s_fw, s_bw])
        assert np.abs(doc.values[0] - expected).max() < 1e-10

    def test_sentence_permutation_sensitive(self):
        m = self.build()
        a, _, _ = m.encode(batch_of([[2, 3], [4, 5], [6, 7]]))
        b, _, _ = m.encode(batch_of([[6, 7], [4, 5], [2, 3]]))
        assert np.abs(a.values - b.values).max() > 1e-9

    def test_tagged_variant_is_same_architecture(self):
        plain = self.build(seed=5, tagset="none")
        tagged = self.build(seed=5, tagset="full")
        assert md.count_parameters(plain) == md.count_parameters(tagged)
        batch = batch_of([[2, 3, 4], [5, 6]])
        a, _, _ = plain.encode(batch)
        b, _, _ = tagged.encode(batch)
        np.testing.assert_array_equal(a.values, b.values)

    def test_outputs_finite(self):
        m = self.build(seed=3)
        rng = np.random.default_rng(0)
        ids = [[int(v) for v in rng.integers(2, 20, size=rng.integers(1, 6))]
               for _ in range(4)]
        result = m.forward(md.pad_batch([doc_of(ids)]))
        assert np.isfinite(result.output.values).all()

    def test_padding_does_not_change_doc_vector(self):
        m = self.build()
        batch = batch_of([[2, 3, 4], [5, 6]])
        doc_a, _, _ = m.encode(batch)

        b, s, t = batch.ids.shape
        ids = np.full((b, s + 2, t + 3), PAD_ID, dtype=np.int64)
        token_mask = np.zeros((b, s + 2, t + 3))
        sent_mask = np.zeros((b, s + 2))
        ids[:, :s, :t] = batch.ids
        token_mask[:, :s, :t] = batch.token_mask
        sent_mask[:, :s] = batch.sent_mask
        padded = md.Batch(ids=ids, token_mask=token_mask, sent_mask=sent_mask,
                          doc_ids=batch.doc_ids)
        doc_b, _, _ = m.encode(padded)
        assert np.abs(doc_a.values - doc_b.values).max() < 1e-9

    def test_batch_composition_invariance(self):
        m = self.build()
        alone, _, _ = m.encode(batch_of([[2, 3, 4], [5, 6]]))
        together, _, _ = m.encode(batch_of([[2, 3, 4], [5, 6]],
                                           [[7, 8, 9, 10, 11], [12, 13], [14, 15]]))
        assert np.abs(alone.values[0] - together.values[0]).max() < 1e-9

    def test_padding_sentences_have_zero_word_attention(self):
        m = self.build()
        batch = ragged_han_batch()
        _, word_maps, _ = m.encode(batch)
        assert (batch.sent_mask == 0).any()
        padding = batch.sent_mask == 0
        assert (word_maps[padding] == 0.0).all()
        np.testing.assert_array_equal(word_maps == 0.0, batch.token_mask == 0.0)

    def test_matches_dummy_mask_oracle(self):
        # values bitwise; gradients sum the same terms in another row order
        m = self.build(seed=4, hidden=5)
        batch = ragged_han_batch(seed=1)
        up = np.random.default_rng(2).normal(size=(batch.size, 10))

        def run(encode):
            for p in m.params.values():
                p.grad = None
            with ad.Tape():
                doc, word_maps, sent_alpha = encode(m, batch)
                ad.backward(mean_all(mul(doc, ad.Tensor(up))))
            return (doc.values, word_maps, sent_alpha), {n: p.grad for n, p in m.params.items()}

        want, want_grads = run(dummy_mask_han_encode)
        got, got_grads = run(md.HanModel.encode)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        for name, expected in want_grads.items():
            if expected is None:
                assert got_grads[name] is None, name
            else:
                assert rel_err(got_grads[name], expected) <= 1e-12, name


class TestHeadForward:
    def test_zero_doc_vector_gives_bias(self):
        m = md.build_model(tiny_config("awe", vocab_size=6, dim=3), np.random.default_rng(0))
        m.embedding.values[:] = 0.0
        m.head_b.values[:] = [0.7, -0.2]
        result = m.forward(batch_of([[2, 3]]))
        np.testing.assert_allclose(result.output.values[0], [0.7, -0.2], atol=1e-15)

    def test_affine_oracle(self):
        m = md.build_model(tiny_config("awe", vocab_size=6, dim=3), np.random.default_rng(1))
        batch = batch_of([[2, 3, 4]])
        result = m.forward(batch)
        doc = m.encode(batch)[0].values
        expected = doc @ m.head_w.values + m.head_b.values
        np.testing.assert_allclose(result.output.values, expected, atol=1e-12)

    def test_regression_head_single_output(self):
        m = md.build_model(tiny_config("han", head="regress-1"), np.random.default_rng(0))
        out = m.forward(batch_of([[2, 3]]))
        assert out.output.shape == (1, 1)

    def test_dropout_only_in_training(self):
        m = md.build_model(tiny_config("awe", vocab_size=6, dim=3, dropout=0.5),
                           np.random.default_rng(0))
        batch = batch_of([[2, 3]])
        a = m.forward(batch, training=False)
        b = m.forward(batch, training=False)
        np.testing.assert_array_equal(a.output.values, b.output.values)
        c = m.forward(batch, training=True, rng=np.random.default_rng(0))
        d = m.forward(batch, training=True, rng=np.random.default_rng(1))
        assert not np.array_equal(c.output.values, d.output.values)

    @staticmethod
    def unit_head_model(p):
        """A 1-d AWE regressor whose every document vector is 1 and whose head
        is the identity, so its outputs are the dropout mask itself."""
        m = md.build_model(tiny_config("awe", vocab_size=4, dim=1, head="regress-1", dropout=p),
                           np.random.default_rng(0))
        m.embedding.values[:] = 1.0
        m.head_w.values[:] = 1.0
        return m

    def test_no_dropout_in_eval_or_at_p_zero(self):
        batch = batch_of(*[[[2]]] * 50)
        for p, training in ((0.5, False), (0.0, True)):
            rng = np.random.default_rng(4)
            out = self.unit_head_model(p).forward(batch, training=training, rng=rng).output.values
            np.testing.assert_array_equal(out, np.ones((50, 1)))
            assert rng.random() == np.random.default_rng(4).random()   # no mask was drawn

    def test_survivors_scaled(self):
        out = self.unit_head_model(0.2).forward(batch_of(*[[[2]]] * 4000), training=True,
                                                rng=np.random.default_rng(8)).output.values
        assert abs(float((out == 0.0).mean()) - 0.2) < 0.02
        np.testing.assert_allclose(out[out != 0.0], 1.0 / 0.8)

    def test_gradient_uses_the_forwards_mask(self):
        m = self.unit_head_model(0.5)
        with ad.Tape():
            out = m.forward(batch_of(*[[[2]]] * 100), training=True,
                            rng=np.random.default_rng(9)).output
            # every output lies above the target, so each takes gradient 1/100
            ad.backward(ad.l1_loss(out, np.full((100, 1), -1.0)))
        kept = out.values[:, 0]
        assert 0 < (kept == 0).sum() < 100
        # the embedding's gradient sums what the mask kept of each document
        np.testing.assert_allclose(m.embedding.grad[2], kept.sum() / 100, rtol=1e-12)
        np.testing.assert_allclose(m.head_w.grad, [[kept.sum() / 100]], rtol=1e-12)

    @pytest.mark.parametrize("head,loss_kind,loss_op", [("classify-2", "cross-entropy", "cross_entropy"),
                                                        ("regress-1", "mae", "l1_loss")])
    def test_han_step_records_one_node_per_layer(self, head, loss_kind, loss_op):
        m = md.build_model(tiny_config("han", head=head, dropout=0.5), np.random.default_rng(0))
        batch = ragged_han_batch()
        with ad.Tape() as tape:
            out = m.forward(batch, training=True, rng=np.random.default_rng(1)).output
            tr.compute_loss(out, np.zeros(batch.size), loss_kind)
            ops = [node.backward_fn.__qualname__.split(".")[0] for node in tape.nodes]
        assert ops == ["rows", "lstm_sequence", "attention_pool", "scatter_rows",
                       "lstm_sequence", "attention_pool", "linear", loss_op]


class TestCountParameters:
    def test_awe_classification_total(self):
        config = md.default_model_config("awe", "classify", vocab_size=10002)
        m = md.build_model(config, np.random.default_rng(0))
        assert md.count_parameters(m) == 500202

    def test_awe_regression_total(self):
        config = md.default_model_config("awe", "regress", vocab_size=10002)
        m = md.build_model(config, np.random.default_rng(0))
        assert md.count_parameters(m) == 3000901

    def test_han_classification_total(self):
        config = md.default_model_config("han", "classify", vocab_size=10002, tagset="full")
        m = md.build_model(config, np.random.default_rng(0))
        assert md.count_parameters(m) == 3235206

    def test_han_regression_total(self):
        config = md.default_model_config("han", "regress", vocab_size=10002, tagset="full")
        m = md.build_model(config, np.random.default_rng(0))
        assert md.count_parameters(m) == 3644801

    def test_registry_walk_oracle(self):
        m = md.build_model(tiny_config("sent_avg_bilstm"), np.random.default_rng(0))
        total = 0
        for p in m.params.values():
            n = 1
            for d in p.shape:
                n *= d
            total += n
        assert md.count_parameters(m) == total

    def test_same_seed_same_init(self):
        a = md.build_model(tiny_config(), np.random.default_rng(11))
        b = md.build_model(tiny_config(), np.random.default_rng(11))
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].values, b.params[name].values)


class TestGradients:
    def test_han_full_finite_difference(self):
        config = tiny_config("han", vocab_size=9, dim=3, hidden=2)
        model = md.build_model(config, np.random.default_rng(2))
        batch = batch_of([[2, 3, 4], [5, 6]])
        golds = np.array([1])

        def loss_of(m):
            out = m.forward(batch)
            return ad.cross_entropy(out.output, golds)

        with ad.Tape():
            ad.backward(loss_of(model))

        for name, param in model.params.items():
            original = param.values.copy()

            def f(x):
                param.values = x
                value = float(loss_of(model).values)
                param.values = original
                return value

            numeric = fd_grad(f, original.copy())
            analytic = param.grad if param.grad is not None else np.zeros_like(original)
            if name == "embedding":
                # only rows for ids in the batch (plus none for PAD) receive gradient
                numeric = numeric
            assert rel_err(analytic, numeric) < 1e-3, name

    def test_baseline_finite_difference(self):
        config = tiny_config("sent_avg_bilstm", vocab_size=9, dim=3, hidden=2, head="regress-1")
        model = md.build_model(config, np.random.default_rng(4))
        batch = batch_of([[2, 3], [4, 5, 6]])
        target = np.array([[1.5]])

        def loss_of(m):
            out = m.forward(batch)
            return mean_all(abs_(sub(out.output, ad.Tensor(target))))

        with ad.Tape():
            ad.backward(loss_of(model))

        for name, param in model.params.items():
            original = param.values.copy()

            def f(x):
                param.values = x
                value = float(loss_of(model).values)
                param.values = original
                return value

            numeric = fd_grad(f, original.copy())
            analytic = param.grad if param.grad is not None else np.zeros_like(original)
            assert rel_err(analytic, numeric) < 1e-3, name


class TestCheckpoints:
    def roundtrip(self, tmp_path, config, seed=0):
        model = md.build_model(config, np.random.default_rng(seed))
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(model, "hash-abc", path)
        return model, path

    def test_round_trip_bit_exact(self, tmp_path):
        model, path = self.roundtrip(tmp_path, tiny_config())
        loaded = md.load_checkpoint(path, "hash-abc")
        assert loaded.config == model.config
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].values, model.params[name].values)

    def test_vocab_hash_mismatch(self, tmp_path):
        _, path = self.roundtrip(tmp_path, tiny_config())
        with pytest.raises(CheckpointMismatchError, match="vocabulary"):
            md.load_checkpoint(path, "other-hash")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointMismatchError, match="not a model checkpoint"):
            md.load_checkpoint(path, "hash-abc")

    def test_header_missing_parameter_rejected(self, tmp_path):
        model = md.build_model(tiny_config(), np.random.default_rng(0))
        del model.params["head.w"]
        path = tmp_path / "partial.ckpt"
        md.save_checkpoint(model, "hash-abc", path)
        with pytest.raises(CheckpointMismatchError, match="head.w"):
            md.load_checkpoint(path, "hash-abc")

    def test_truncated_payload_rejected(self, tmp_path):
        _, path = self.roundtrip(tmp_path, tiny_config())
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CheckpointMismatchError, match="truncated"):
            md.load_checkpoint(path, "hash-abc")

    def test_trailing_bytes_rejected(self, tmp_path):
        _, path = self.roundtrip(tmp_path, tiny_config())
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(CheckpointMismatchError, match="trailing"):
            md.load_checkpoint(path, "hash-abc")

    @pytest.mark.parametrize("edit, match", [
        pytest.param(lambda cfg: cfg.update(extra=1), "unknown keys \\['extra'\\]", id="unknown"),
        pytest.param(lambda cfg: cfg.pop("dropout_p"), "missing keys \\['dropout_p'\\]", id="missing"),
        pytest.param(lambda cfg: cfg.update(embedding_dim="4"), "'embedding_dim' must be int",
                     id="str-for-int"),
        pytest.param(lambda cfg: cfg.update(vocab_size=True), "'vocab_size' must be int",
                     id="bool-for-int"),
    ])
    def test_header_model_config_checked(self, tmp_path, edit, match):
        _, path = self.roundtrip(tmp_path, tiny_config())
        raw = path.read_bytes()
        start = len(md.CHECKPOINT_MAGIC)
        (length,) = struct.unpack("<Q", raw[start:start + 8])
        header = json.loads(raw[start + 8:start + 8 + length])
        edit(header["model_config"])
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:start] + struct.pack("<Q", len(blob)) + blob
                         + raw[start + 8 + length:])
        with pytest.raises(CheckpointMismatchError, match=match):
            md.load_checkpoint(path, "hash-abc")

    @pytest.mark.parametrize("head", ["classify-2", "regress-1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, head, bad):
        model = md.build_model(tiny_config("awe", head=head), np.random.default_rng(0))
        model.params["head.w"].values[-1, -1] = bad
        path = tmp_path / "model.ckpt"
        md.save_checkpoint(model, "hash-abc", path)
        with pytest.raises(CheckpointMismatchError,
                           match=re.escape(f"{path}: parameter 'head.w' holds NaN or inf")):
            md.load_checkpoint(path, "hash-abc")

    def test_header_length_past_end_of_file_rejected(self, tmp_path):
        # a damaged high byte in the length must not become a huge read
        _, path = self.roundtrip(tmp_path, tiny_config())
        raw = bytearray(path.read_bytes())
        raw[len(md.CHECKPOINT_MAGIC) + 7] = 0x02
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointMismatchError, match="truncated header"):
            md.load_checkpoint(path, "hash-abc")

    def test_forward_identical_after_reload(self, tmp_path):
        model, path = self.roundtrip(tmp_path, tiny_config("han"))
        loaded = md.load_checkpoint(path, "hash-abc")
        batch = batch_of([[2, 3, 4], [5, 6]])
        a = model.forward(batch)
        b = loaded.forward(batch)
        np.testing.assert_array_equal(a.output.values, b.output.values)
