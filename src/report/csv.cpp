#include "report/csv.hpp"

#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace proof::report {

namespace {

/// RFC-4180 quoting: a field needs quotes when it contains a separator, a
/// quote, or *either* line-break character — bare '\r' (old-Mac line ends,
/// or hostile layer names) breaks row framing just as '\n' does.
bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string escape(const std::string& field) {
  if (!needs_quoting(field)) {
    return field;
  }
  std::string quoted = "\"";
  quoted += strings::replace_all(field, "\"", "\"\"");
  quoted += '"';
  return quoted;
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> headers) : headers_(std::move(headers)) {
  PROOF_CHECK(!headers_.empty(), "csv needs at least one column");
}

void CsvWriter::add_row(std::vector<std::string> cells) {
  PROOF_CHECK(cells.size() == headers_.size(),
              "row has " << cells.size() << " cells, expected " << headers_.size());
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::to_string() const {
  std::ostringstream out;
  const auto emit = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) {
        out << ',';
      }
      out << escape(row[c]);
    }
    out << "\n";
  };
  emit(headers_);
  for (const auto& row : rows_) {
    emit(row);
  }
  return out.str();
}

void CsvWriter::save(const std::string& path) const {
  std::ofstream out(path);
  PROOF_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << to_string();
  out.flush();
  PROOF_CHECK(out.good(), "failed writing CSV to '" << path << "'");
}

}  // namespace proof::report
