#include "slurm/conf.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "util/strings.hpp"

namespace commsched {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            int lineno) {
  throw ParseError("slurm.conf:" + std::to_string(lineno) +
                   ": unsupported value '" + value + "' for " + key);
}

constexpr const char* kSaParams =
    "sa, sa_budget=<int>, sa_seed=<uint64>, sa_t0=<float>, "
    "sa_cooling=<float>, sa_patience=<int>, sa_verify=<int>";

/// One SelectTypeParameters token: `sa` selects the SA policy, the sa_*
/// knobs map onto SaOptions.
void apply_select_param(SlurmConf& conf, const std::string& tok, int lineno) {
  if (tok == "sa") {
    conf.sched.allocator = AllocatorKind::kSa;
    return;
  }
  const auto eq = tok.find('=');
  if (eq == std::string::npos)
    throw ParseError("slurm.conf:" + std::to_string(lineno) +
                     ": unknown SelectTypeParameters token '" + tok +
                     "' (expected " + kSaParams + ")");
  const std::string pkey(trim(tok.substr(0, eq)));
  const std::string pval(trim(tok.substr(eq + 1)));
  SaOptions& sa = conf.sched.sa;
  if (pkey == "sa_budget") {
    const auto v = parse_int_at_least(pval, std::numeric_limits<int>::min());
    if (!v) bad_value(pkey, pval, lineno);
    sa.budget = *v;
  } else if (pkey == "sa_seed") {
    const auto v = parse_uint64(pval);
    if (!v) bad_value(pkey, pval, lineno);
    sa.seed = *v;
  } else if (pkey == "sa_t0") {
    const auto v = parse_double(pval);
    if (!v || *v < 0.0) bad_value(pkey, pval, lineno);
    sa.init_temp_frac = *v;
  } else if (pkey == "sa_cooling") {
    const auto v = parse_double(pval);
    if (!v || *v <= 0.0 || *v > 1.0) bad_value(pkey, pval, lineno);
    sa.cooling = *v;
  } else if (pkey == "sa_patience") {
    const auto v = parse_int_at_least(pval, 0);
    if (!v) bad_value(pkey, pval, lineno);
    sa.patience = *v;
  } else if (pkey == "sa_verify") {
    const auto v = parse_int_at_least(pval, 0);
    if (!v) bad_value(pkey, pval, lineno);
    sa.verify_stride = *v;
  } else {
    throw ParseError("slurm.conf:" + std::to_string(lineno) +
                     ": unknown SelectTypeParameters token '" + tok +
                     "' (expected " + kSaParams + ")");
  }
}

constexpr const char* kAllocdParams =
    "socket=<path>, queue=<int>, deadline_ms=<int>, idle_ms=<int>, "
    "write_ms=<int>";

/// One AllocdParameters token: allocator-daemon knobs (ServeConf).
void apply_allocd_param(SlurmConf& conf, const std::string& tok, int lineno) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos)
    throw ParseError("slurm.conf:" + std::to_string(lineno) +
                     ": unknown AllocdParameters token '" + tok +
                     "' (expected " + kAllocdParams + ")");
  const std::string pkey(trim(tok.substr(0, eq)));
  const std::string pval(trim(tok.substr(eq + 1)));
  ServeConf& serve = conf.serve;
  if (pkey == "socket") {
    if (pval.empty()) bad_value(pkey, pval, lineno);
    serve.socket_path = pval;
  } else if (pkey == "queue") {
    const auto v = parse_int_at_least(pval, 1);
    if (!v) bad_value(pkey, pval, lineno);
    serve.queue_depth = *v;
  } else if (pkey == "deadline_ms") {
    const auto v = parse_int_at_least(pval, 0);
    if (!v) bad_value(pkey, pval, lineno);
    serve.default_deadline_ms = *v;
  } else if (pkey == "idle_ms") {
    const auto v = parse_int_at_least(pval, 0);
    if (!v) bad_value(pkey, pval, lineno);
    serve.idle_timeout_ms = *v;
  } else if (pkey == "write_ms") {
    const auto v = parse_int_at_least(pval, 0);
    if (!v) bad_value(pkey, pval, lineno);
    serve.write_timeout_ms = *v;
  } else {
    throw ParseError("slurm.conf:" + std::to_string(lineno) +
                     ": unknown AllocdParameters token '" + tok +
                     "' (expected " + kAllocdParams + ")");
  }
}

}  // namespace

SlurmConf parse_slurm_conf(std::istream& in) {
  SlurmConf conf;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto t = trim(line);
    if (t.empty()) continue;
    const auto eq = t.find('=');
    if (eq == std::string_view::npos)
      throw ParseError("slurm.conf:" + std::to_string(lineno) +
                       ": expected Key=Value, got '" + std::string(t) + "'");
    const std::string key(trim(t.substr(0, eq)));
    const std::string value(trim(t.substr(eq + 1)));

    if (key == "SchedulerType") {
      if (value == "sched/backfill") conf.sched.easy_backfill = true;
      else if (value == "sched/builtin") conf.sched.easy_backfill = false;
      else bad_value(key, value, lineno);
    } else if (key == "SelectType") {
      if (value != "select/linear") bad_value(key, value, lineno);
    } else if (key == "TopologyPlugin") {
      if (value == "topology/tree") conf.topology_aware = true;
      else if (value == "topology/none") conf.topology_aware = false;
      else bad_value(key, value, lineno);
    } else if (key == "PriorityType") {
      if (value == "priority/fifo")
        conf.sched.queue_policy = QueuePolicy::kFifo;
      else if (value == "priority/sjf")
        conf.sched.queue_policy = QueuePolicy::kShortestJobFirst;
      else if (value == "priority/smallest")
        conf.sched.queue_policy = QueuePolicy::kSmallestJobFirst;
      else if (value == "priority/colocation")
        conf.sched.queue_policy = QueuePolicy::kColocation;
      else bad_value(key, value, lineno);
    } else if (key == "JobAware") {
      const auto kind = allocator_kind_from_string(value);
      if (!kind)
        throw ParseError("slurm.conf:" + std::to_string(lineno) +
                         ": unsupported value '" + value +
                         "' for JobAware (expected one of " +
                         allocator_kind_names() + ")");
      conf.sched.allocator = *kind;
    } else if (key == "SelectTypeParameters") {
      for (const auto& raw : split(value, ',')) {
        const std::string tok(trim(raw));
        if (!tok.empty()) apply_select_param(conf, tok, lineno);
      }
    } else if (key == "AllocdParameters") {
      for (const auto& raw : split(value, ',')) {
        const std::string tok(trim(raw));
        if (!tok.empty()) apply_allocd_param(conf, tok, lineno);
      }
    } else if (key == "BackfillDepth") {
      const auto depth = parse_int_at_least(value, 1);
      if (!depth) bad_value(key, value, lineno);
      conf.sched.backfill_depth = *depth;
    } else if (key == "EnforceWallTime") {
      if (value == "yes") conf.sched.enforce_walltime = true;
      else if (value == "no") conf.sched.enforce_walltime = false;
      else bad_value(key, value, lineno);
    }
    // Unrecognized keys: silently accepted, like real slurm.conf parsing
    // of plugin-specific options.
  }
  return conf;
}

SlurmConf load_slurm_conf(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw ParseError("cannot open slurm.conf '" + path + "'");
  return parse_slurm_conf(f);
}

std::string write_slurm_conf(const SlurmConf& conf) {
  std::ostringstream out;
  out << "SchedulerType="
      << (conf.sched.easy_backfill ? "sched/backfill" : "sched/builtin")
      << "\n";
  out << "SelectType=select/linear\n";
  out << "TopologyPlugin="
      << (conf.topology_aware ? "topology/tree" : "topology/none") << "\n";
  switch (conf.sched.queue_policy) {
    case QueuePolicy::kFifo: out << "PriorityType=priority/fifo\n"; break;
    case QueuePolicy::kShortestJobFirst:
      out << "PriorityType=priority/sjf\n";
      break;
    case QueuePolicy::kSmallestJobFirst:
      out << "PriorityType=priority/smallest\n";
      break;
    case QueuePolicy::kColocation:
      out << "PriorityType=priority/colocation\n";
      break;
  }
  out << "JobAware=" << allocator_kind_name(conf.sched.allocator) << "\n";
  // SelectTypeParameters: the `sa` selector rides on JobAware above; the
  // knobs are emitted only when they differ from the defaults, so a
  // write/parse round trip reproduces the SaOptions exactly.
  {
    const SaOptions def{};
    const SaOptions& sa = conf.sched.sa;
    std::ostringstream params;
    const char* sep = "";
    const auto add = [&](const std::string& token) {
      params << sep << token;
      sep = ",";
    };
    if (conf.sched.allocator == AllocatorKind::kSa) add("sa");
    if (sa.budget != def.budget) add("sa_budget=" + std::to_string(sa.budget));
    if (sa.seed != def.seed) add("sa_seed=" + std::to_string(sa.seed));
    if (sa.init_temp_frac != def.init_temp_frac) {
      std::ostringstream v;
      v.precision(17);
      v << "sa_t0=" << sa.init_temp_frac;
      add(v.str());
    }
    if (sa.cooling != def.cooling) {
      std::ostringstream v;
      v.precision(17);
      v << "sa_cooling=" << sa.cooling;
      add(v.str());
    }
    if (sa.patience != def.patience)
      add("sa_patience=" + std::to_string(sa.patience));
    if (sa.verify_stride != def.verify_stride)
      add("sa_verify=" + std::to_string(sa.verify_stride));
    const std::string rendered = params.str();
    if (!rendered.empty()) out << "SelectTypeParameters=" << rendered << "\n";
  }
  // AllocdParameters: daemon knobs, emitted only when they differ from the
  // defaults, so a write/parse round trip reproduces the ServeConf exactly.
  {
    const ServeConf def{};
    const ServeConf& serve = conf.serve;
    std::ostringstream params;
    const char* sep = "";
    const auto add = [&](const std::string& token) {
      params << sep << token;
      sep = ",";
    };
    if (serve.socket_path != def.socket_path)
      add("socket=" + serve.socket_path);
    if (serve.queue_depth != def.queue_depth)
      add("queue=" + std::to_string(serve.queue_depth));
    if (serve.default_deadline_ms != def.default_deadline_ms)
      add("deadline_ms=" + std::to_string(serve.default_deadline_ms));
    if (serve.idle_timeout_ms != def.idle_timeout_ms)
      add("idle_ms=" + std::to_string(serve.idle_timeout_ms));
    if (serve.write_timeout_ms != def.write_timeout_ms)
      add("write_ms=" + std::to_string(serve.write_timeout_ms));
    const std::string rendered = params.str();
    if (!rendered.empty()) out << "AllocdParameters=" << rendered << "\n";
  }
  out << "BackfillDepth=" << conf.sched.backfill_depth << "\n";
  out << "EnforceWallTime=" << (conf.sched.enforce_walltime ? "yes" : "no")
      << "\n";
  return out.str();
}

}  // namespace commsched
