"""TPC-C new-order transactions (macro-benchmark ``TPCC``).

A per-thread warehouse with the tables the new-order transaction touches,
laid out as flat record arrays in NVMM (8-word records):

- ``district``: ``[next_o_id, tax, ytd, pad...]`` x N_DISTRICTS
- ``item``: ``[price, name_hash, data...]`` (read-only)
- ``stock``: ``[quantity, ytd, order_cnt, remote_cnt, data...]``
- ``customer``: ``[c_id, discount, balance, data...]`` (read-mostly)
- ``order`` / ``new_order`` / ``order_line``: per-district ring buffers
  the transaction appends to.

Each transaction follows the TPC-C new-order recipe: read the district and
bump ``next_o_id``, read the customer, insert the order header and
new-order record, and for 5-15 order lines read the item, update the stock
row and append an order line.
"""

from typing import Callable, List, Optional

from repro.common.bitops import WORD_BYTES
from repro.heap.allocator import PersistentHeap
from repro.workloads.base import SetupContext, Workload

N_DISTRICTS = 8
RECORD_WORDS = 8
ORDER_CAPACITY = 1024  # per-district ring capacity (o_id wraps modulo this)
MIN_LINES, MAX_LINES = 5, 15


def item_name_hash(i: int) -> int:
    """The item record's 32-bit name hash: a fixed multiplicative mix of ``i``.

    Built-in ``hash`` of a tuple with a ``str`` is salted per process
    (``PYTHONHASHSEED``), which would make the setup image, and every
    trace digest keyed on it, differ from run to run.
    """
    return (i * 0x9E3779B1 + 0x7F4A7C15) & 0xFFFF_FFFF


class TpccWarehouse:
    """One warehouse's worth of TPC-C state in simulated NVMM."""

    def __init__(self, heap: PersistentHeap, n_items: int, n_customers: int) -> None:
        self.heap = heap
        self.n_items = n_items
        self.n_customers = n_customers
        record_bytes = RECORD_WORDS * WORD_BYTES
        self.district = heap.pmalloc(N_DISTRICTS * record_bytes)
        self.item = heap.pmalloc(n_items * record_bytes)
        self.stock = heap.pmalloc(n_items * record_bytes)
        self.customer = heap.pmalloc(n_customers * record_bytes)
        self.orders = heap.pmalloc(N_DISTRICTS * ORDER_CAPACITY * record_bytes)
        self.new_orders = heap.pmalloc(N_DISTRICTS * ORDER_CAPACITY * record_bytes)
        # Order lines: MAX_LINES records per order slot.
        self.order_lines = heap.pmalloc(
            N_DISTRICTS * ORDER_CAPACITY * MAX_LINES * record_bytes
        )

    # -- record addressing ----------------------------------------------

    @staticmethod
    def _record(base: int, index: int) -> int:
        return base + index * RECORD_WORDS * WORD_BYTES

    def district_rec(self, d: int) -> int:
        return self._record(self.district, d)

    def item_rec(self, i: int) -> int:
        return self._record(self.item, i)

    def stock_rec(self, i: int) -> int:
        return self._record(self.stock, i)

    def customer_rec(self, c: int) -> int:
        return self._record(self.customer, c)

    def order_rec(self, d: int, o_id: int) -> int:
        return self._record(self.orders, d * ORDER_CAPACITY + o_id % ORDER_CAPACITY)

    def new_order_rec(self, d: int, o_id: int) -> int:
        return self._record(self.new_orders, d * ORDER_CAPACITY + o_id % ORDER_CAPACITY)

    def order_line_rec(self, d: int, o_id: int, line: int) -> int:
        index = (d * ORDER_CAPACITY + o_id % ORDER_CAPACITY) * MAX_LINES + line
        return self._record(self.order_lines, index)

    # -- setup ------------------------------------------------------------

    def populate(self, ctx, rng) -> None:
        for d in range(N_DISTRICTS):
            ctx.store_words(
                self.district_rec(d), [1, rng.randrange(2000), 0, 0, 0, 0, 0, 0]
            )
        for i in range(self.n_items):
            price = rng.randrange(100, 10_000)
            ctx.store_words(
                self.item_rec(i),
                [price, item_name_hash(i), 0, 0, 0, 0, 0, 0],
            )
            ctx.store_words(
                self.stock_rec(i),
                [rng.randrange(10, 100), 0, 0, 0, 0, 0, 0, 0],
            )
        for c in range(self.n_customers):
            ctx.store_words(
                self.customer_rec(c),
                [c, rng.randrange(5000), 0, 0, 0, 0, 0, 0],
            )

    # -- the new-order transaction ------------------------------------------

    def new_order(self, ctx, rng) -> int:
        """Run one new-order transaction; returns the order id."""
        d = rng.randrange(N_DISTRICTS)
        district = self.district_rec(d)
        o_id = ctx.load(district)
        ctx.store(district, o_id + 1)
        d_tax = ctx.load(district + WORD_BYTES)

        c = rng.randrange(self.n_customers)
        customer = self.customer_rec(c)
        c_discount = ctx.load(customer + WORD_BYTES)

        ol_cnt = rng.randrange(MIN_LINES, MAX_LINES + 1)
        entry_d = o_id * 7 + d  # deterministic "timestamp"
        ctx.store_words(
            self.order_rec(d, o_id),
            [o_id, d, c, entry_d, ol_cnt, 0, 0, 0],
        )
        ctx.store_words(self.new_order_rec(d, o_id), [o_id, d, 1, 0, 0, 0, 0, 0])

        total = 0
        for line in range(ol_cnt):
            # TPC-C orders skew toward popular items, so one order often
            # touches the same stock row more than once — the intra-
            # transaction rewrites Figure 3 reports.
            if rng.random() < 0.5:
                i = rng.randrange(min(32, self.n_items))
            else:
                i = rng.randrange(self.n_items)
            price = ctx.load(self.item_rec(i))
            stock = self.stock_rec(i)
            quantity = ctx.load(stock)
            order_qty = rng.randrange(1, 11)
            new_quantity = quantity - order_qty
            if new_quantity < 10:
                new_quantity += 91
            ctx.store(stock, new_quantity)
            ctx.store(stock + WORD_BYTES, ctx.load(stock + WORD_BYTES) + order_qty)
            ctx.store(stock + 2 * WORD_BYTES, ctx.load(stock + 2 * WORD_BYTES) + 1)
            amount = order_qty * price
            total += amount
            ctx.store_words(
                self.order_line_rec(d, o_id, line),
                [o_id, line, i, order_qty, amount, d_tax, c_discount, 0],
            )
        return o_id


class TpccWorkload(Workload):
    """TPC-C new-order transactions (Table IV)."""

    name = "tpcc"

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.warehouses: List[Optional[TpccWarehouse]] = []

    def setup_shard(self, ctx: SetupContext, tid: int) -> None:
        while len(self.warehouses) <= tid:
            self.warehouses.append(None)
        rng = self.rngs[tid]
        warehouse = TpccWarehouse(
            self.heap,
            n_items=max(self.params.key_space // 4, 64),
            n_customers=max(self.params.initial_items, 64),
        )
        warehouse.populate(ctx, rng)
        self.warehouses[tid] = warehouse

    def transaction(self, tid: int) -> Callable:
        rng = self.rngs[tid]
        warehouse = self.warehouses[tid]

        def body(ctx):
            warehouse.new_order(ctx, rng)

        return body
