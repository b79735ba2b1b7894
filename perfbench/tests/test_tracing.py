"""Span arithmetic and the wrapping of the hicu package."""
import numpy as np
import pytest

import tracing


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],  # overlaps b: the union [1, 6] is covered once
        ["b", 0, 3.0, 6.0],
        ["a.inner", 1, 2.0, 3.0],  # grandchild: counts against a, not root
        ["late", 0, 9.0, 12.0],  # sticks out of root: only [9, 10] is covered
        ["inside-a", 0, 1.5, 2.5],  # lies within a's interval: adds nothing
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_layer_totals_sum_self_time_and_split_training_forwards():
    spans = [
        ["curriculum.step_epoch", -1, 0.0, 10.0],
        ["network.forward", 0, 1.0, 3.0],
        ["network.decode", 1, 1.5, 2.5],
        ["curriculum.score_dataset", 0, 5.0, 9.0],
        ["network.forward", 3, 6.0, 7.0],
    ]
    totals = tracing.layer_totals(spans)
    assert totals["network.forward.calls"] == 2
    assert totals["network.forward.train_calls"] == 1
    assert totals["network.forward.s"] == pytest.approx(1.0 + 1.0)
    assert totals["curriculum.step_epoch.s"] == pytest.approx(10.0 - 2.0 - 4.0)
    assert totals["curriculum.score_dataset.s"] == pytest.approx(3.0)


def test_install_rebinds_names_imported_elsewhere_and_uninstall_restores():
    from hicu import cli, curriculum, metrics, network

    originals = (network.forward, network.decode, curriculum.forward, cli.write_container,
                 metrics.auc_binary, curriculum.Trainer.run)
    tracer = tracing.Tracer("test")
    tracer.install(full=True)
    try:
        assert curriculum.forward is network.forward is not originals[0]
        assert cli.write_container is curriculum.write_container is not originals[3]
        rng = np.random.default_rng(0)
        enc = network.init_encoder(rng, vocab_size=8, d_e=4, d_f=4, kernel_size=3)
        dec = network.DecoderParams(Q=rng.normal(size=(4, 3)), W=rng.normal(size=(4, 3)),
                                    b=np.zeros(3))
        n_before = len(tracer.spans)
        curriculum.forward(np.array([[2, 3, 4, 5], [5, 4, 3, 2]]), enc, dec)
        names = [s[0] for s in tracer.spans[n_before:]]
        assert names[:2] == ["network.forward", "network.decode"]
        forward_index = n_before
        assert tracer.spans[forward_index + 1][1] == forward_index
        assert tracer.counts["network.forward.docs"] == 2
        assert tracer.counts["network.decode.gflop"] == pytest.approx(4 * 2 * 4 * 4 * 3 / 1e9)
    finally:
        tracer.uninstall()
    assert (network.forward, network.decode, curriculum.forward, cli.write_container,
            metrics.auc_binary, curriculum.Trainer.run) == originals
