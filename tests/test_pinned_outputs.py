"""Outputs pinned across commits: sha256 digests of what generation and view
construction produce, computed once and kept here.

Neither path calls BLAS (objectness ranking and view pixels do, and are left
out), so the digests hold on any machine. A digest that moves means a change
altered the bytes of a dataset or the float64 geometry of a view pair; if
that was meant, the change says so and the digest is computed again.
"""

import hashlib
import os

import numpy as np

from mvdetr.config import parse_config
from mvdetr.data import SceneSpec, generate_dataset, load_dataset
from mvdetr.views import build_view_pair

DATASET_SHA256 = "80b141195770f3cfa446ab78fa71208ff5ee87e937df1c2f8169cfd7dc314d8f"
VIEW_PAIRS_SHA256 = "700d1f0ce6d4624c594ed13b3882e82df9a0bb9fab7ba3f179735f2d67e6eedd"


def test_dataset_and_view_geometry_match_pinned_digests(tmp_path):
    manifest = generate_dataset(4, SceneSpec(image_size=160, seed=1), str(tmp_path))
    data = hashlib.sha256()
    for name in sorted(os.listdir(tmp_path)):  # the PPMs, then manifest.txt
        data.update((tmp_path / name).read_bytes())
    cfg = parse_config("proposals.mode=random\n")
    views = hashlib.sha256()
    for pixels, _, _ in load_dataset(manifest):
        for seed in range(4):
            p = build_view_pair(pixels, cfg, seed)
            for a in (p.base_rect, p.rect1, p.rect2, p.proposals1, p.proposals2,
                      np.array([p.flip1, p.flip2, p.padded])):
                views.update(np.asarray(a, dtype=np.float64).tobytes())
    assert data.hexdigest() == DATASET_SHA256
    assert views.hexdigest() == VIEW_PAIRS_SHA256
