"""``repro.storage`` — photo storage substrate.

Object stores over capacity-accounted volumes, the label database, a
synthetic photo codec (byte-accurate JPEG/preprocessed-binary stand-ins),
and real deflate compression helpers.
"""

from .compression import (
    compress_array,
    decompress_array,
    deflate,
    inflate,
)
from .imageformat import (
    CodecError,
    decode_photo,
    decode_preprocessed,
    encode_photo,
    encode_preprocessed,
    preprocess,
)
from .objectstore import (
    CorruptObjectError,
    MissingObjectError,
    ObjectStore,
    StorageFullError,
    Volume,
)
from .persistence import (
    SnapshotError,
    dump_object_store,
    dump_photo_database,
    load_object_store,
    load_photo_database,
)
from .photodb import LabelRecord, PhotoDatabase

__all__ = [
    "deflate", "inflate", "compress_array",
    "decompress_array",
    "encode_photo", "decode_photo", "preprocess", "encode_preprocessed",
    "decode_preprocessed", "CodecError",
    "ObjectStore", "Volume", "StorageFullError", "MissingObjectError",
    "CorruptObjectError",
    "PhotoDatabase", "LabelRecord",
    "dump_object_store", "load_object_store", "dump_photo_database",
    "load_photo_database", "SnapshotError",
]
