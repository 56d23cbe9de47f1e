#include "la1/msc_spec.hpp"

#include <stdexcept>

#include "msc/parse.hpp"
#include "msc_fixtures.hpp"

namespace la1::core {

uml::ClassDiagram la1_class_diagram() {
  uml::ClassDiagram cd("LA1_Interface");

  uml::Class& np = cd.add_class("NetworkProcessor");
  np.operations = {{"IssueRead", {"addr"}}, {"IssueWrite", {"addr", "data", "bwe"}}};

  uml::Class& rp = cd.add_class("ReadPort");
  rp.attributes = {{"m_stage", "PipelineStage"}, {"m_addr", "Address"}};
  rp.operations = {{"OnReadRequest", {"addr"}}, {"FormatData", {}}};

  uml::Class& wp = cd.add_class("WritePort");
  wp.attributes = {{"m_beat0", "Beat"}, {"m_bwe", "ByteEnables"}};
  wp.operations = {{"OnReceiveData", {"beat"}}, {"OnAddress", {"addr"}}};

  uml::Class& mem = cd.add_class("SRAM_Memory");
  mem.attributes = {{"m_words", "WordArray"}};
  mem.operations = {{"Read", {"addr"}}, {"Write", {"addr", "word", "bwe"}}};

  uml::Class& simmgr = cd.add_class("LightSimulator");
  simmgr.attributes = {{"m_k", "ClockEvent"}, {"m_ks", "ClockEvent"}};
  simmgr.operations = {{"SimManager_Init", {}}, {"SimManager_Restart", {}}};

  uml::Class& bank = cd.add_class("La1Bank");
  bank.operations = {{"OnK", {}}, {"OnKs", {}}};

  cd.add_relation({"La1Bank", "ReadPort", uml::RelationKind::kComposition,
                   "read path", "1"});
  cd.add_relation({"La1Bank", "WritePort", uml::RelationKind::kComposition,
                   "write path", "1"});
  cd.add_relation({"La1Bank", "SRAM_Memory", uml::RelationKind::kComposition,
                   "storage", "1"});
  cd.add_relation({"NetworkProcessor", "La1Bank", uml::RelationKind::kAssociation,
                   "LA-1 pins", "1..4"});
  cd.add_relation({"LightSimulator", "La1Bank", uml::RelationKind::kAssociation,
                   "clocks", "1..4"});
  return cd;
}

const char* read_mode_msc() { return fixtures::kReadModeMsc; }

const char* write_mode_msc() { return fixtures::kWriteModeMsc; }

namespace {

msc::Chart parse_fixture(const char* text, const char* label) {
  msc::Chart chart = msc::parse_chart(text, label);
  const auto issues = chart.validate();
  if (!issues.empty()) {
    throw std::logic_error(std::string(label) + ": " + issues.front());
  }
  return chart;
}

}  // namespace

msc::Chart read_mode_chart() {
  return parse_fixture(fixtures::kReadModeMsc, "read_mode.msc");
}

msc::Chart write_mode_chart() {
  return parse_fixture(fixtures::kWriteModeMsc, "write_mode.msc");
}

}  // namespace la1::core
