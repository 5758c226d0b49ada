#include "checker/trace_io.h"

#include <algorithm>
#include <charconv>
#include <memory>

#include "support/strutil.h"

namespace repro::checker {
namespace {

Result<uint64_t> parse_value(std::string_view text, int line) {
  uint64_t value = 0;
  std::from_chars_result result{};
  if (starts_with(text, "0x") || starts_with(text, "0X")) {
    result = std::from_chars(text.data() + 2, text.data() + text.size(), value, 16);
  } else {
    result = std::from_chars(text.data(), text.data() + text.size(), value, 10);
  }
  if (result.ec != std::errc{} || result.ptr != text.data() + text.size()) {
    return Error{"malformed value '" + std::string(text) + "'", line};
  }
  return value;
}

}  // namespace

Result<Trace> parse_trace_csv(std::string_view text) {
  Trace trace;
  // The header is the key table every row shares.
  std::shared_ptr<const support::Snapshot::Keys> columns;
  int line_number = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view raw = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_number;
    const std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') {
      if (pos > text.size()) break;
      continue;
    }
    const std::vector<std::string> cells = split_and_trim(line, ',');
    if (columns == nullptr) {
      // Header row.
      if (cells.size() < 2 || cells[0] != "time") {
        return Error{"trace header must be 'time,<sig>,...'", line_number};
      }
      auto keys = std::make_shared<support::Snapshot::Keys>(cells.begin() + 1,
                                                            cells.end());
      for (size_t i = 0; i < keys->size(); ++i) {
        if (std::find(keys->begin(), keys->begin() + i, (*keys)[i]) !=
            keys->begin() + i) {
          return Error{"duplicate column '" + (*keys)[i] + "'", line_number};
        }
      }
      columns = std::move(keys);
      continue;
    }
    if (cells.size() != columns->size() + 1) {
      return Error{"row has " + std::to_string(cells.size()) + " cells, expected " +
                       std::to_string(columns->size() + 1),
                   line_number};
    }
    Observation o{0, support::Snapshot(columns)};
    auto time = parse_value(cells[0], line_number);
    if (!time.ok()) return time.error();
    o.time = time.value();
    if (!trace.empty() && o.time <= trace.back().time) {
      return Error{"timestamps must be strictly increasing", line_number};
    }
    for (size_t i = 0; i < columns->size(); ++i) {
      auto value = parse_value(cells[i + 1], line_number);
      if (!value.ok()) return value.error();
      o.values.set_at(i, value.value());
    }
    trace.push_back(std::move(o));
    if (pos > text.size()) break;
  }
  if (columns == nullptr) {
    return Error{"empty trace file", 0};
  }
  return trace;
}

std::string to_csv(const Trace& trace) {
  std::string out = "time";
  if (trace.empty()) return out + "\n";
  const support::Snapshot::Keys& columns = *trace.front().values.keys();
  for (const std::string& name : columns) {
    out += ",";
    out += name;
  }
  out += "\n";
  for (const Observation& o : trace) {
    out += std::to_string(o.time);
    for (const std::string& name : columns) {
      out += ",";
      out += std::to_string(o.values.value(name));
    }
    out += "\n";
  }
  return out;
}

}  // namespace repro::checker
