#include "fsp/io.h"

#include <fstream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "common/matrix.h"

namespace fsbb::fsp {
namespace {

// Pulls the next integer token out of the stream, skipping any non-numeric
// words (header labels like "processing times :"). Returns nullopt at EOF.
std::optional<long long> next_int(std::istream& in) {
  std::string tok;
  while (in >> tok) {
    try {
      std::size_t used = 0;
      const long long v = std::stoll(tok, &used);
      if (used == tok.size()) return v;
    } catch (const std::exception&) {
      // Not a number — header text; keep scanning.
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<InstanceRecord> read_taillard_stream(std::istream& in) {
  std::vector<InstanceRecord> out;
  for (;;) {
    const auto n_opt = next_int(in);
    if (!n_opt) break;
    const auto m_opt = next_int(in);
    FSBB_CHECK_MSG(m_opt.has_value(), "truncated header: missing machine count");
    const auto seed = next_int(in);
    const auto ub = next_int(in);
    const auto lb = next_int(in);
    FSBB_CHECK_MSG(seed && ub && lb, "truncated header: missing seed/bounds");

    const int n = static_cast<int>(*n_opt);
    const int m = static_cast<int>(*m_opt);
    FSBB_CHECK_MSG(n >= 1 && m >= 1, "non-positive dimensions in header");

    Matrix<Time> pt(static_cast<std::size_t>(n), static_cast<std::size_t>(m));
    for (int machine = 0; machine < m; ++machine) {
      for (int job = 0; job < n; ++job) {
        const auto v = next_int(in);
        FSBB_CHECK_MSG(v.has_value(), "truncated processing-time matrix");
        pt(job, machine) = checked_time(*v);
      }
    }

    InstanceRecord rec{
        Instance(std::to_string(n) + "x" + std::to_string(m), std::move(pt)),
        static_cast<std::int32_t>(*seed), std::nullopt, std::nullopt};
    if (*ub > 0) rec.published_upper_bound = static_cast<Time>(*ub);
    if (*lb > 0) rec.published_lower_bound = static_cast<Time>(*lb);
    out.push_back(std::move(rec));
  }
  return out;
}

std::vector<InstanceRecord> read_taillard_file(const std::string& path) {
  std::ifstream in(path);
  FSBB_CHECK_MSG(in.good(), "cannot open instance file: " + path);
  return read_taillard_stream(in);
}

void write_taillard_stream(std::ostream& out, const Instance& inst,
                           std::int32_t time_seed, Time upper_bound,
                           Time lower_bound) {
  out << "number of jobs, number of machines, initial seed, upper bound, "
         "lower bound :\n";
  out << "    " << inst.jobs() << "  " << inst.machines() << "  " << time_seed
      << "  " << upper_bound << "  " << lower_bound << "\n";
  out << "processing times :\n";
  for (int machine = 0; machine < inst.machines(); ++machine) {
    for (int job = 0; job < inst.jobs(); ++job) {
      out << (job == 0 ? "" : " ") << inst.pt(job, machine);
    }
    out << "\n";
  }
}

void write_taillard_file(const std::string& path, const Instance& inst,
                         std::int32_t time_seed, Time upper_bound,
                         Time lower_bound) {
  std::ofstream out(path);
  FSBB_CHECK_MSG(out.good(), "cannot open file for writing: " + path);
  write_taillard_stream(out, inst, time_seed, upper_bound, lower_bound);
}

}  // namespace fsbb::fsp
