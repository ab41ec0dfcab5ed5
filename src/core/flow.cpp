#include "core/flow.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dpg {

namespace {

using IndexList = std::span<const std::size_t>;

void push_point(const RequestSequence& sequence, std::size_t index,
                Flow& out) {
  out.points.push_back(ServicePoint{sequence.server_of(index),
                                    sequence.time_of(index), index});
}

std::vector<IndexList> index_lists(const RequestSequence& sequence,
                                   const std::vector<ItemId>& group) {
  std::vector<IndexList> lists;
  lists.reserve(group.size());
  for (const ItemId item : group) {
    lists.push_back(sequence.indices_for_item(item));
  }
  return lists;
}

}  // namespace

Flow make_item_flow(const RequestSequence& sequence, ItemId item) {
  Flow flow;
  make_item_flow(sequence, item, flow);
  return flow;
}

void make_item_flow(const RequestSequence& sequence, ItemId item, Flow& out) {
  out.group_size = 1;
  out.points.clear();
  const IndexList events = sequence.indices_for_item(item);
  out.points.reserve(events.size());
  for (const std::size_t index : events) {
    push_point(sequence, index, out);
  }
}

Flow make_package_flow(const RequestSequence& sequence, ItemId a, ItemId b) {
  Flow flow;
  make_package_flow(sequence, a, b, flow);
  return flow;
}

void make_package_flow(const RequestSequence& sequence, ItemId a, ItemId b,
                       Flow& out) {
  out.group_size = 2;
  out.points.clear();
  // Walk the shorter list and gallop through the longer one.
  IndexList walk = sequence.indices_for_item(a);
  IndexList probe = sequence.indices_for_item(b);
  if (probe.size() < walk.size()) std::swap(walk, probe);
  std::size_t cursor = 0;
  for (const std::size_t index : walk) {
    cursor = seek_index(probe, cursor, index);
    if (cursor == probe.size()) break;
    if (probe[cursor] == index) push_point(sequence, index, out);
  }
}

Flow make_group_flow(const RequestSequence& sequence,
                     const std::vector<ItemId>& group) {
  Flow flow;
  make_group_flow(sequence, group, flow);
  return flow;
}

void make_group_flow(const RequestSequence& sequence,
                     const std::vector<ItemId>& group, Flow& out) {
  require(!group.empty(), "make_group_flow: empty group");
  out.group_size = group.size();
  out.points.clear();
  std::vector<IndexList> lists = index_lists(sequence, group);
  std::sort(lists.begin(), lists.end(),
            [](IndexList x, IndexList y) { return x.size() < y.size(); });
  // Every candidate comes from the rarest list; each other list keeps a
  // cursor that only moves forward.
  std::vector<std::size_t> cursors(lists.size(), 0);
  for (const std::size_t index : lists.front()) {
    bool in_all = true;
    for (std::size_t l = 1; l < lists.size() && in_all; ++l) {
      cursors[l] = seek_index(lists[l], cursors[l], index);
      if (cursors[l] == lists[l].size()) return;
      in_all = lists[l][cursors[l]] == index;
    }
    if (in_all) push_point(sequence, index, out);
  }
}

Flow make_union_flow(const RequestSequence& sequence,
                     const std::vector<ItemId>& group) {
  Flow flow;
  make_union_flow(sequence, group, flow);
  return flow;
}

void make_union_flow(const RequestSequence& sequence,
                     const std::vector<ItemId>& group, Flow& out) {
  require(!group.empty(), "make_union_flow: empty group");
  out.group_size = group.size();
  out.points.clear();
  const std::vector<IndexList> lists = index_lists(sequence, group);
  std::vector<std::size_t> cursors(lists.size(), 0);
  for (;;) {
    // The smallest head among the lists is the next request in time order;
    // every list holding it steps past it, so shared rows appear once.
    std::size_t next = ServicePoint::kNoRequest;
    for (std::size_t l = 0; l < lists.size(); ++l) {
      if (cursors[l] < lists[l].size()) {
        next = std::min(next, lists[l][cursors[l]]);
      }
    }
    if (next == ServicePoint::kNoRequest) return;
    push_point(sequence, next, out);
    for (std::size_t l = 0; l < lists.size(); ++l) {
      if (cursors[l] < lists[l].size() && lists[l][cursors[l]] == next) {
        ++cursors[l];
      }
    }
  }
}

std::size_t seek_index(std::span<const std::size_t> list, std::size_t from,
                       std::size_t target) noexcept {
  const std::size_t n = list.size();
  if (from >= n || list[from] >= target) return from;
  // Gallop while list[lo] < target, doubling the stride, then binary-search
  // the last stride: (lo, min(lo + step, n)).
  std::size_t lo = from;
  std::size_t step = 1;
  while (lo + step < n && list[lo + step] < target) {
    lo += step;
    step *= 2;
  }
  const std::size_t* data = list.data();
  return static_cast<std::size_t>(
      std::lower_bound(data + lo + 1, data + std::min(lo + step, n), target) -
      data);
}

void validate_flow(const Flow& flow) {
  require(flow.group_size >= 1, "Flow: group_size must be >= 1");
  Time previous = 0.0;
  for (const ServicePoint& point : flow.points) {
    require(point.time > previous,
            "Flow: service times must be strictly increasing and positive");
    previous = point.time;
  }
}

}  // namespace dpg
