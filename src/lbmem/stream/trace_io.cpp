#include "lbmem/stream/trace_io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "lbmem/util/check.hpp"

namespace lbmem {

namespace {

/// Names travel as bare tokens; whitespace or ':' would corrupt the line.
void require_writable_name(const std::string& name) {
  if (name.empty() ||
      name.find_first_of(" \t\r\n:") != std::string::npos) {
    throw ModelError("task name not representable in trace format: '" +
                     name + "'");
  }
}

[[noreturn]] void malformed(std::size_t line_no, const std::string& why,
                            const std::string& line) {
  throw ModelError("trace line " + std::to_string(line_no) + ": " + why +
                   " — '" + line + "'");
}

std::int64_t parse_int(const std::string& token, std::size_t line_no,
                       const std::string& line) {
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(token, &used);
    if (used != token.size()) malformed(line_no, "bad integer", line);
    return value;
  } catch (const std::invalid_argument&) {
    malformed(line_no, "bad integer '" + token + "'", line);
  } catch (const std::out_of_range&) {
    malformed(line_no, "integer out of range '" + token + "'", line);
  }
}

}  // namespace

void write_trace(std::ostream& out, const EventTrace& trace) {
  out << "# lbmem-trace v1\n";
  for (const Event& event : trace) {
    out << event.at << " ";
    switch (event.kind()) {
      case EventKind::WcetChange: {
        const WcetChange& change = std::get<WcetChange>(event.payload);
        require_writable_name(change.task);
        out << "wcet " << change.task << " " << change.wcet;
        break;
      }
      case EventKind::TaskArrival: {
        const NewTaskSpec& spec = std::get<TaskArrival>(event.payload).spec;
        require_writable_name(spec.name);
        out << "arrival " << spec.name << " " << spec.period << " "
            << spec.wcet << " " << spec.memory;
        for (const NewTaskSpec::Producer& producer : spec.producers) {
          require_writable_name(producer.task);
          out << " " << producer.task << ":" << producer.data_size;
        }
        break;
      }
      case EventKind::TaskRemoval:
        require_writable_name(std::get<TaskRemoval>(event.payload).task);
        out << "removal " << std::get<TaskRemoval>(event.payload).task;
        break;
      case EventKind::ProcessorFailure:
        out << "failure "
            << std::get<ProcessorFailure>(event.payload).proc;
        break;
    }
    out << "\n";
  }
}

std::string trace_to_string(const EventTrace& trace) {
  std::ostringstream out;
  write_trace(out, trace);
  return out.str();
}

EventTrace parse_trace(std::istream& in) {
  EventTrace trace;
  std::string line;
  std::size_t line_no = 0;
  Time last_at = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Tokenize; skip blanks and comments.
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    std::string token;
    while (fields >> token) tokens.push_back(token);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    if (tokens.size() < 2) malformed(line_no, "missing event kind", line);

    Event event;
    event.at = parse_int(tokens[0], line_no, line);
    if (event.at < 0) malformed(line_no, "negative arrival tick", line);
    if (event.at < last_at) {
      malformed(line_no, "arrival ticks must be non-decreasing", line);
    }
    last_at = event.at;

    const std::string& kind = tokens[1];
    if (kind == "wcet") {
      if (tokens.size() != 4) malformed(line_no, "wcet takes 2 fields", line);
      event.payload =
          WcetChange{tokens[2], parse_int(tokens[3], line_no, line)};
    } else if (kind == "arrival") {
      if (tokens.size() < 6) {
        malformed(line_no, "arrival takes at least 4 fields", line);
      }
      NewTaskSpec spec;
      spec.name = tokens[2];
      spec.period = parse_int(tokens[3], line_no, line);
      spec.wcet = parse_int(tokens[4], line_no, line);
      spec.memory = parse_int(tokens[5], line_no, line);
      for (std::size_t t = 6; t < tokens.size(); ++t) {
        const std::size_t colon = tokens[t].find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= tokens[t].size()) {
          malformed(line_no, "bad producer '" + tokens[t] + "'", line);
        }
        spec.producers.push_back(NewTaskSpec::Producer{
            tokens[t].substr(0, colon),
            parse_int(tokens[t].substr(colon + 1), line_no, line)});
      }
      event.payload = TaskArrival{std::move(spec)};
    } else if (kind == "removal") {
      if (tokens.size() != 3) {
        malformed(line_no, "removal takes 1 field", line);
      }
      event.payload = TaskRemoval{tokens[2]};
    } else if (kind == "failure") {
      if (tokens.size() != 3) {
        malformed(line_no, "failure takes 1 field", line);
      }
      const std::int64_t proc = parse_int(tokens[2], line_no, line);
      if (proc < 0) malformed(line_no, "negative processor id", line);
      if (proc > std::numeric_limits<ProcId>::max()) {
        malformed(line_no, "processor id out of range", line);
      }
      event.payload = ProcessorFailure{static_cast<ProcId>(proc)};
    } else {
      malformed(line_no, "unknown event kind '" + kind + "'", line);
    }
    trace.push_back(std::move(event));
  }
  return trace;
}

EventTrace parse_trace(const std::string& text) {
  std::istringstream in(text);
  return parse_trace(in);
}

}  // namespace lbmem
