"""Group communication: virtual synchrony, uniform total order, EVS.

The stack implemented here provides exactly the abstractions the paper's
section 2.1 and 5.1 assume:

* **views** and **view change events** with virtual synchrony: any two
  sites that install two consecutive views deliver the same set of
  multicast messages in the first of them (flush protocol);
* a **total order multicast**: all sites deliver all messages in the same
  order (fixed sequencer per view, gap-free in-order delivery);
* **uniform reliable delivery** adapted to partitionable systems: a
  message is delivered only once a majority of a primary view's members
  hold a copy (every member's in other views and under EVS), and the
  next primary view trusts nobody unless enough members flush straight
  out of the previous one, hence messages delivered by a site that
  leaves the primary component are a subset of those delivered by the
  up-to-date members of the next consecutive primary view;
* a **primary view** notion (majority of the static universe) with
  non-overlapping concurrent views;
* the **EVS** extension: subviews and subview-sets inside a view, with
  application-requested, totally ordered Subview-SetMerge / SubviewMerge
  e-view changes (section 5.1).
"""

from repro.gcs.config import GCSConfig
from repro.gcs.evs import EnrichedGroupMember, EView
from repro.gcs.member import GroupApplication, GroupMember
from repro.gcs.view import View, ViewId

__all__ = [
    "EView",
    "EnrichedGroupMember",
    "GCSConfig",
    "GroupApplication",
    "GroupMember",
    "View",
    "ViewId",
]
