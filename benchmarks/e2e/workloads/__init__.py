"""The five workloads, in the order BENCHMARK.json lists them."""

from .clustered_sharded_crpq import ClusteredShardedCrpq
from .site_rewrite_cold import SiteRewriteCold
from .web_edit_read import WebEditRead
from .web_kernel_batch import WebKernelBatch
from .web_served_point import WebServedPoint

WORKLOADS = {
    cls.name: cls
    for cls in (
        WebKernelBatch, WebServedPoint, SiteRewriteCold, ClusteredShardedCrpq,
        WebEditRead,
    )
}
