"""Multi-owner encrypted image storage with privacy-preserving retrieval.

The pieces, bottom up: a ring-blinded secure-sum scheme over Z_{p^2}
(``group_crypto``), an XOR keystream cipher for grayscale images
(``image_cipher``), edge-histogram texture features (``ehd_features``),
per-dimension feature encryption exposing only aggregate sums
(``feature_crypto``), the sum-based similarity that hides entrywise
relations from the cloud (``similarity``), the cloud and key-management
actors (``cloud_node``, ``kmc_node``), the deterministic protocol
simulation tying them together (``protocol_sim``), and the evaluation
harness plus its CLI (``evaluation``, ``cli``).
"""

import logging

from .cloud_node import (
    AddImages,
    AuthorizationError,
    CloudNode,
    DeleteImages,
    IndexEntry,
    QueryEnvelope,
    UpdateImages,
)
from .ehd_features import extract_ehd
from .feature_crypto import EncryptedFeature, encrypt_feature_pair, recover_sums
from .group_crypto import (
    GroupParams,
    aggregate_and_recover,
    encrypt_vector,
    gen_group_params,
    load_params,
    params_from_primes,
    save_params,
)
from .image_cipher import image_dec, image_enc, keygen, read_pgm, write_pgm
from .kmc_node import KmcNode
from .protocol_sim import World, decode_message, encode_message
from .similarity import SumPair, euc_dis, new_dis, sim_from_sums

__version__ = "0.1.0"

# a library's records reach only the handlers its application installs, so
# an unconfigured program prints no warning beside its one-line refusal
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AddImages",
    "AuthorizationError",
    "CloudNode",
    "DeleteImages",
    "EncryptedFeature",
    "GroupParams",
    "IndexEntry",
    "KmcNode",
    "QueryEnvelope",
    "SumPair",
    "UpdateImages",
    "World",
    "aggregate_and_recover",
    "decode_message",
    "encode_message",
    "encrypt_feature_pair",
    "encrypt_vector",
    "euc_dis",
    "extract_ehd",
    "gen_group_params",
    "image_dec",
    "image_enc",
    "keygen",
    "load_params",
    "new_dis",
    "params_from_primes",
    "read_pgm",
    "recover_sums",
    "save_params",
    "sim_from_sums",
    "write_pgm",
]
