#include "server/serving.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace asl::server {

KvServiceConfig normalized_config(KvServiceConfig config) {
  if (config.num_shards < 1) config.num_shards = 1;
  if (config.workers_per_shard < 1) config.workers_per_shard = 1;
  if (config.queue_capacity < 1) config.queue_capacity = 1;
  if (config.batch_k < 1) config.batch_k = 1;
  if (config.batch_k > kMaxBatch) {
    config.batch_k = static_cast<std::uint32_t>(kMaxBatch);
  }
  if (config.classes.empty()) {
    config.classes.push_back(RequestClass{"kv-default", 0});
  }
  return config;
}

db::CostProfile resolved_cost_profile(const KvServiceConfig& config) {
  const db::CostProfile registry_default =
      db::default_cost_profile(config.engine);
  if (registry_default.empty()) {
    std::fprintf(stderr, "KvService: %s\n",
                 db::kv_engine_error(config.engine).c_str());
    std::abort();
  }
  const db::CostProfile profile =
      config.cost.empty() ? registry_default : config.cost;
  return profile.scaled(config.cost_scale);
}

std::vector<WorkerSlot> worker_slots(const KvServiceConfig& config) {
  const std::uint32_t n = config.num_shards * config.workers_per_shard;
  const std::uint32_t num_big =
      config.big_workers == ~0u ? (n + 1) / 2 : config.big_workers;
  std::vector<WorkerSlot> slots(n);
  for (std::uint32_t w = 0; w < n; ++w) {
    slots[w].index = w;
    slots[w].shard = w % config.num_shards;
    slots[w].type = w < num_big ? CoreType::kBig : CoreType::kLittle;
    slots[w].speed = slots[w].type == CoreType::kBig ? SpeedFactors::big()
                                                     : SpeedFactors::little();
  }
  return slots;
}

bool BatchPlan::begin(const Request& head, Nanos wait,
                      const db::CostProfile& cost) {
  cost_ = &cost;
  locked_ = !(cost.get_lock_free && head.op == OpType::kGet);
  members_[0] = BatchMember{head, wait, 0, {}};
  order_[0] = 0;
  count_ = 1;
  cs_count_ = 0;
  return locked_;
}

void BatchPlan::seal() {
  std::size_t n = 0;
  if (locked_ && cost_->get_lock_free) {
    for (std::size_t i = 0; i < count_; ++i) {
      if (members_[i].req.op == OpType::kPut) {
        order_[n++] = static_cast<std::uint8_t>(i);
      }
    }
    cs_count_ = n;
    for (std::size_t i = 0; i < count_; ++i) {
      if (members_[i].req.op != OpType::kPut) {
        order_[n++] = static_cast<std::uint8_t>(i);
      }
    }
  } else {
    for (; n < count_; ++n) order_[n] = static_cast<std::uint8_t>(n);
    cs_count_ = locked_ ? count_ : 0;
  }
}

Segment BatchPlan::segment(std::size_t i) const {
  const OpType op = member(i).req.op;
  const db::OpCost& cost = cost_->op(op == OpType::kPut);
  return Segment{op, i < cs_count_, cost.cs_nops, cost.allocs};
}

ServiceMetrics::ServiceMetrics(const KvServiceConfig& config,
                               const std::vector<WorkerSlot>& slots)
    : registry_(static_cast<std::uint32_t>(slots.size())),
      admission_(config.classes.size()),
      get_acquires_(registry_.counter("routes.get_route_acquires")),
      put_acquires_(registry_.counter("routes.put_route_acquires")),
      cs_gets_(registry_.counter("routes.cs_gets")),
      lockfree_gets_(registry_.counter("routes.lockfree_gets")) {
  if (config.telemetry.enabled) {
    lock_wait_ = registry_.histogram("lock.wait_ns");
    lock_hold_ = registry_.histogram("lock.hold_ns");
  }
  for (const WorkerSlot& slot : slots) slot_types_.push_back(slot.type);
  for (const RequestClass& spec : config.classes) {
    const std::string prefix = "class." + spec.name;
    classes_.push_back({spec, registry_.histogram(prefix + ".latency_ns"),
                        registry_.histogram(prefix + ".qwait_ns"),
                        registry_.counter(prefix + ".slo_met")});
  }
  registry_.freeze();
}

ClassReport ServiceMetrics::class_report(std::uint32_t class_index,
                                         int epoch_id) const {
  const ClassMetrics& m = classes_[class_index];
  const Admission& a = admission_[class_index];
  // shed before rejected (the mirror of count_admission's order), so a
  // racing read undercounts shed; the clamp covers the rest.
  const std::uint64_t accepted = a.accepted.load(std::memory_order_relaxed);
  const std::uint64_t shed = a.shed.load(std::memory_order_relaxed);
  const std::uint64_t rejected = a.rejected.load(std::memory_order_relaxed);
  ClassReport c{m.spec.name, epoch_id, m.spec.slo_ns, accepted, rejected,
                std::min(shed, rejected), 0, 0, {}, {}};
  // Read before the latency fold, which a completion records first.
  const std::uint64_t slo_met = registry_.fold(m.slo_met);
  Histogram by_type[2];  // big, little
  for (std::uint32_t s = 0; s < slot_types_.size(); ++s) {
    registry_.merge_slot(m.latency, s,
                         by_type[slot_types_[s] == CoreType::kBig ? 0 : 1]);
    registry_.merge_slot(m.queue_wait, s, c.queue_wait);
  }
  c.total.merge(CoreType::kBig, by_type[0]);
  c.total.merge(CoreType::kLittle, by_type[1]);
  c.completed = c.total.overall().count();
  c.slo_met = std::min(slo_met, c.completed);
  return c;
}

LockRouteStats ServiceMetrics::routes() const {
  return {registry_.fold(get_acquires_), registry_.fold(put_acquires_),
          registry_.fold(cs_gets_), registry_.fold(lockfree_gets_)};
}

}  // namespace asl::server
