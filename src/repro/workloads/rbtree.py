"""Persistent red-black tree (micro-benchmark ``RBTree``).

Node layout (``item_words``): ``[key, left, right, parent, color,
value...]`` — 3 value words for the small dataset, 507 for the large one.
Null pointers are 0; the null node is black.  Insert and delete implement
the full CLRS algorithms with rebalancing fixups (delete tracks the
spliced child's parent explicitly instead of using a sentinel).
"""

from typing import Callable, Iterator, List, Optional

from repro.common.bitops import WORD_BYTES
from repro.heap.allocator import PersistentHeap
from repro.workloads.base import SetupContext, Workload

RED = 1
BLACK = 0


class PersistentRBTree:
    """Red-black tree in simulated NVMM."""

    def __init__(self, heap: PersistentHeap, item_words: int) -> None:
        if item_words < 6:
            raise ValueError("red-black nodes need at least 6 words")
        self.heap = heap
        self.node_words = item_words
        self.value_words = item_words - 5
        self.root_ptr = heap.pmalloc(WORD_BYTES)

    def create(self, ctx) -> None:
        ctx.store(self.root_ptr, 0)

    # -- node fields ----------------------------------------------------

    def _key(self, ctx, n: int) -> int:
        return ctx.load(n)

    def _left(self, ctx, n: int) -> int:
        return ctx.load(n + WORD_BYTES)

    def _right(self, ctx, n: int) -> int:
        return ctx.load(n + 2 * WORD_BYTES)

    def _parent(self, ctx, n: int) -> int:
        return ctx.load(n + 3 * WORD_BYTES)

    def _color(self, ctx, n: int) -> int:
        return BLACK if n == 0 else ctx.load(n + 4 * WORD_BYTES)

    def _set_left(self, ctx, n: int, v: int) -> None:
        ctx.store(n + WORD_BYTES, v)

    def _set_right(self, ctx, n: int, v: int) -> None:
        ctx.store(n + 2 * WORD_BYTES, v)

    def _set_parent(self, ctx, n: int, v: int) -> None:
        if n:
            ctx.store(n + 3 * WORD_BYTES, v)

    def _set_color(self, ctx, n: int, v: int) -> None:
        if n:
            ctx.store(n + 4 * WORD_BYTES, v)

    def _root(self, ctx) -> int:
        return ctx.load(self.root_ptr)

    # -- rotations ---------------------------------------------------------

    def _rotate_left(self, ctx, x: int) -> None:
        y = self._right(ctx, x)
        beta = self._left(ctx, y)
        self._set_right(ctx, x, beta)
        self._set_parent(ctx, beta, x)
        parent = self._parent(ctx, x)
        self._set_parent(ctx, y, parent)
        if not parent:
            ctx.store(self.root_ptr, y)
        elif self._left(ctx, parent) == x:
            self._set_left(ctx, parent, y)
        else:
            self._set_right(ctx, parent, y)
        self._set_left(ctx, y, x)
        self._set_parent(ctx, x, y)

    def _rotate_right(self, ctx, x: int) -> None:
        y = self._left(ctx, x)
        beta = self._right(ctx, y)
        self._set_left(ctx, x, beta)
        self._set_parent(ctx, beta, x)
        parent = self._parent(ctx, x)
        self._set_parent(ctx, y, parent)
        if not parent:
            ctx.store(self.root_ptr, y)
        elif self._right(ctx, parent) == x:
            self._set_right(ctx, parent, y)
        else:
            self._set_left(ctx, parent, y)
        self._set_right(ctx, y, x)
        self._set_parent(ctx, x, y)

    # -- search ------------------------------------------------------------

    def search(self, ctx, key: int) -> Optional[int]:
        node = self._root(ctx)
        while node:
            k = self._key(ctx, node)
            if key == k:
                return node
            node = self._left(ctx, node) if key < k else self._right(ctx, node)
        return None

    # -- insert ------------------------------------------------------------

    def insert(self, ctx, key: int, values: List[int]) -> int:
        """Insert ``key`` (updating values if present); returns the node."""
        if len(values) != self.value_words:
            raise ValueError("expected %d value words" % self.value_words)
        parent, node = 0, self._root(ctx)
        while node:
            k = self._key(ctx, node)
            if key == k:
                for i, value in enumerate(values):
                    ctx.store(node + (5 + i) * WORD_BYTES, value)
                return node
            parent, node = node, (
                self._left(ctx, node) if key < k else self._right(ctx, node)
            )
        fresh = self.heap.pmalloc(self.node_words * WORD_BYTES)
        ctx.store(fresh, key)
        self._set_left(ctx, fresh, 0)
        self._set_right(ctx, fresh, 0)
        ctx.store(fresh + 3 * WORD_BYTES, parent)
        self._set_color(ctx, fresh, RED)
        for i, value in enumerate(values):
            ctx.store(fresh + (5 + i) * WORD_BYTES, value)
        if not parent:
            ctx.store(self.root_ptr, fresh)
        elif key < self._key(ctx, parent):
            self._set_left(ctx, parent, fresh)
        else:
            self._set_right(ctx, parent, fresh)
        self._insert_fixup(ctx, fresh)
        return fresh

    def _insert_fixup(self, ctx, z: int) -> None:
        while self._color(ctx, self._parent(ctx, z)) == RED:
            parent = self._parent(ctx, z)
            grand = self._parent(ctx, parent)
            if parent == self._left(ctx, grand):
                uncle = self._right(ctx, grand)
                if self._color(ctx, uncle) == RED:
                    self._set_color(ctx, parent, BLACK)
                    self._set_color(ctx, uncle, BLACK)
                    self._set_color(ctx, grand, RED)
                    z = grand
                else:
                    if z == self._right(ctx, parent):
                        z = parent
                        self._rotate_left(ctx, z)
                        parent = self._parent(ctx, z)
                        grand = self._parent(ctx, parent)
                    self._set_color(ctx, parent, BLACK)
                    self._set_color(ctx, grand, RED)
                    self._rotate_right(ctx, grand)
            else:
                uncle = self._left(ctx, grand)
                if self._color(ctx, uncle) == RED:
                    self._set_color(ctx, parent, BLACK)
                    self._set_color(ctx, uncle, BLACK)
                    self._set_color(ctx, grand, RED)
                    z = grand
                else:
                    if z == self._left(ctx, parent):
                        z = parent
                        self._rotate_right(ctx, z)
                        parent = self._parent(ctx, z)
                        grand = self._parent(ctx, parent)
                    self._set_color(ctx, parent, BLACK)
                    self._set_color(ctx, grand, RED)
                    self._rotate_left(ctx, grand)
        root = self._root(ctx)
        if self._color(ctx, root) != BLACK:
            self._set_color(ctx, root, BLACK)

    # -- delete ------------------------------------------------------------

    def _minimum(self, ctx, node: int) -> int:
        while True:
            left = self._left(ctx, node)
            if not left:
                return node
            node = left

    def _transplant(self, ctx, u: int, v: int) -> None:
        parent = self._parent(ctx, u)
        if not parent:
            ctx.store(self.root_ptr, v)
        elif u == self._left(ctx, parent):
            self._set_left(ctx, parent, v)
        else:
            self._set_right(ctx, parent, v)
        self._set_parent(ctx, v, parent)

    def delete(self, ctx, key: int) -> bool:
        z = self.search(ctx, key)
        if z is None:
            return False
        y = z
        y_original_color = self._color(ctx, y)
        if not self._left(ctx, z):
            x = self._right(ctx, z)
            x_parent = self._parent(ctx, z)
            self._transplant(ctx, z, x)
        elif not self._right(ctx, z):
            x = self._left(ctx, z)
            x_parent = self._parent(ctx, z)
            self._transplant(ctx, z, x)
        else:
            y = self._minimum(ctx, self._right(ctx, z))
            y_original_color = self._color(ctx, y)
            x = self._right(ctx, y)
            if self._parent(ctx, y) == z:
                x_parent = y
                self._set_parent(ctx, x, y)
            else:
                x_parent = self._parent(ctx, y)
                self._transplant(ctx, y, x)
                self._set_right(ctx, y, self._right(ctx, z))
                self._set_parent(ctx, self._right(ctx, y), y)
            self._transplant(ctx, z, y)
            self._set_left(ctx, y, self._left(ctx, z))
            self._set_parent(ctx, self._left(ctx, y), y)
            self._set_color(ctx, y, self._color(ctx, z))
        if y_original_color == BLACK:
            self._delete_fixup(ctx, x, x_parent)
        self.heap.pfree(z)
        return True

    def _delete_fixup(self, ctx, x: int, x_parent: int) -> None:
        while x != self._root(ctx) and self._color(ctx, x) == BLACK:
            if x_parent == 0:
                break
            if x == self._left(ctx, x_parent):
                w = self._right(ctx, x_parent)
                if self._color(ctx, w) == RED:
                    self._set_color(ctx, w, BLACK)
                    self._set_color(ctx, x_parent, RED)
                    self._rotate_left(ctx, x_parent)
                    w = self._right(ctx, x_parent)
                if (
                    self._color(ctx, self._left(ctx, w)) == BLACK
                    and self._color(ctx, self._right(ctx, w)) == BLACK
                ):
                    self._set_color(ctx, w, RED)
                    x = x_parent
                    x_parent = self._parent(ctx, x)
                else:
                    if self._color(ctx, self._right(ctx, w)) == BLACK:
                        self._set_color(ctx, self._left(ctx, w), BLACK)
                        self._set_color(ctx, w, RED)
                        self._rotate_right(ctx, w)
                        w = self._right(ctx, x_parent)
                    self._set_color(ctx, w, self._color(ctx, x_parent))
                    self._set_color(ctx, x_parent, BLACK)
                    self._set_color(ctx, self._right(ctx, w), BLACK)
                    self._rotate_left(ctx, x_parent)
                    x = self._root(ctx)
                    x_parent = 0
            else:
                w = self._left(ctx, x_parent)
                if self._color(ctx, w) == RED:
                    self._set_color(ctx, w, BLACK)
                    self._set_color(ctx, x_parent, RED)
                    self._rotate_right(ctx, x_parent)
                    w = self._left(ctx, x_parent)
                if (
                    self._color(ctx, self._right(ctx, w)) == BLACK
                    and self._color(ctx, self._left(ctx, w)) == BLACK
                ):
                    self._set_color(ctx, w, RED)
                    x = x_parent
                    x_parent = self._parent(ctx, x)
                else:
                    if self._color(ctx, self._left(ctx, w)) == BLACK:
                        self._set_color(ctx, self._right(ctx, w), BLACK)
                        self._set_color(ctx, w, RED)
                        self._rotate_left(ctx, w)
                        w = self._left(ctx, x_parent)
                    self._set_color(ctx, w, self._color(ctx, x_parent))
                    self._set_color(ctx, x_parent, BLACK)
                    self._set_color(ctx, self._left(ctx, w), BLACK)
                    self._rotate_right(ctx, x_parent)
                    x = self._root(ctx)
                    x_parent = 0
        self._set_color(ctx, x, BLACK)

    # -- iteration -----------------------------------------------------------

    def items(self, ctx) -> Iterator[int]:
        def walk(node: int) -> Iterator[int]:
            if not node:
                return
            yield from walk(self._left(ctx, node))
            yield self._key(ctx, node)
            yield from walk(self._right(ctx, node))

        yield from walk(self._root(ctx))


class RBTreeWorkload(Workload):
    """Insert/delete nodes in a red-black tree (Table IV)."""

    name = "rbtree"

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.trees: List[Optional[PersistentRBTree]] = []

    def setup_shard(self, ctx: SetupContext, tid: int) -> None:
        while len(self.trees) <= tid:
            self.trees.append(None)
        tree = PersistentRBTree(self.heap, self.params.dataset.item_words)
        tree.create(ctx)
        rng = self.rngs[tid]
        for _ in range(self.params.initial_items):
            key = rng.randrange(1, self.params.key_space)
            tree.insert(ctx, key, self.value_words(rng, tree.value_words))
        self.trees[tid] = tree

    def transaction(self, tid: int) -> Callable:
        rng = self.rngs[tid]
        tree = self.trees[tid]
        key = rng.randrange(1, self.params.key_space)
        if rng.random() < 0.6:
            values = self.value_words(rng, tree.value_words)

            def body(ctx):
                tree.insert(ctx, key, values)
        else:
            def body(ctx):
                tree.delete(ctx, key)

        return body
