"""The memory pool: memory nodes, controllers, and client-side allocation."""

from .. import _exports

_EXPORTS = {
    "ClientAllocator": ".allocator",
    "MemoryBudget": ".allocator",
    "StripedAllocator": ".allocator",
    "Controller": ".controller",
    "OutOfMemoryError": ".controller",
    "SegmentState": ".controller",
    "BLOCK_SIZE": ".node",
    "MemoryAccessError": ".node",
    "MemoryNode": ".node",
    "MemoryPool": ".node",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _exports.lazy_exports(globals(), _EXPORTS)
