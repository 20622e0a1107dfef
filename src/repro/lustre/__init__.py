"""Simulated Lustre data path.

This subpackage models the slice of Lustre that AdapTBF touches (paper §II-A
and Fig. 1): clients issue RPCs over a network to an Object Storage Server
(OSS); the Network Request Scheduler (NRS) orders them — either plain FCFS or
through the classful Token Bucket Filter (TBF) policy — and a pool of I/O
threads services dequeued RPCs against an Object Storage Target (OST) with
finite disk bandwidth.  A per-OST job-stats tracker mirrors Lustre's
``job_stats`` procfile, which is what the AdapTBF controller samples.

The model intentionally reproduces the *control-relevant* behaviours:

* tokens gate dequeue — a rule-matched RPC is only served when its queue's
  bucket holds a token (1 RPC = 1 token, as in the paper);
* queues are drained FCFS internally and earliest-deadline-first across
  queues, with rule rank breaking ties (the paper's rule hierarchy);
* unmatched RPCs fall into a fallback queue served opportunistically by idle
  threads, without token limits;
* rules can be started, stopped and re-rated at runtime without losing queued
  requests (stopping a rule drains its backlog through the fallback queue);
* the OST is a processor-sharing bandwidth server, so concurrent transfers
  split disk bandwidth exactly as a saturated SSD would in the fluid limit.
"""

from repro.lustre.bucket import TokenBucket
from repro.lustre.client import ClientProcess, IoHandle
from repro.lustre.jobstats import JobStatsSnapshot, JobStatsTracker
from repro.lustre.network import Network
from repro.lustre.nrs import FifoPolicy, NrsPolicy, TbfPolicy
from repro.lustre.oss import Oss
from repro.lustre.ost import Ost
from repro.lustre.rpc import Rpc, RpcKind
from repro.lustre.striping import StripeLayout
from repro.lustre.tbf import TbfRule

__all__ = [
    "ClientProcess",
    "FifoPolicy",
    "IoHandle",
    "JobStatsSnapshot",
    "JobStatsTracker",
    "Network",
    "NrsPolicy",
    "Oss",
    "Ost",
    "Rpc",
    "RpcKind",
    "StripeLayout",
    "TbfPolicy",
    "TbfRule",
    "TokenBucket",
]
