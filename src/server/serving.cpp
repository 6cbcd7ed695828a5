#include "server/serving.h"

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

void ClassAccount::record(CoreType type, Nanos total_ns, Nanos wait_ns,
                          Nanos slo_ns) {
  completed += 1;
  if (slo_ns == 0 || total_ns <= slo_ns) slo_met += 1;
  total.record(type, total_ns);
  queue_wait.record(wait_ns);
}

ClassReport ClassAccount::report(const RequestClass& spec, int epoch_id,
                                 std::uint64_t accepted,
                                 std::uint64_t rejected,
                                 std::uint64_t shed) const {
  ClassReport c;
  c.name = spec.name;
  c.epoch_id = epoch_id;
  c.slo_ns = spec.slo_ns;
  c.accepted = accepted;
  c.rejected = rejected;
  c.shed = shed > rejected ? rejected : shed;
  c.completed = completed;
  c.slo_met = slo_met;
  c.total = total;
  c.queue_wait = queue_wait;
  return c;
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

}  // namespace asl::server
