#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "la1/msc_spec.hpp"
#include "msc/compile.hpp"
#include "uml/model.hpp"
#include "uml/render.hpp"

namespace la1::uml {
namespace {

TEST(ClassDiagramTest, BuildAndFind) {
  ClassDiagram cd("d");
  Class& c = cd.add_class("Port");
  c.attributes.push_back({"m_state", "int"});
  c.operations.push_back({"Step", {"cycle"}});
  EXPECT_NE(cd.find("Port"), nullptr);
  EXPECT_EQ(cd.find("Nope"), nullptr);
  EXPECT_THROW(cd.add_class("Port"), std::invalid_argument);
}

TEST(ClassDiagramTest, ValidateDanglingRelation) {
  ClassDiagram cd("d");
  cd.add_class("A");
  cd.add_relation({"A", "Missing", RelationKind::kAssociation, "", ""});
  const auto issues = cd.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].find("Missing"), std::string::npos);
}

TEST(ClassDiagramTest, ValidateGeneralizationCycle) {
  ClassDiagram cd("d");
  cd.add_class("A");
  cd.add_class("B");
  cd.add_relation({"A", "B", RelationKind::kGeneralization, "", ""});
  cd.add_relation({"B", "A", RelationKind::kGeneralization, "", ""});
  EXPECT_FALSE(cd.validate().empty());
}

// The paper's modified sequence diagrams are msc::Chart values.
msc::Message message(std::string from, std::string to, std::string op,
                     int cycle, msc::Clock clock) {
  msc::Message m;
  m.from = std::move(from);
  m.to = std::move(to);
  m.operation = std::move(op);
  m.cycle_lo = m.cycle_hi = cycle;
  m.clock = clock;
  return m;
}

TEST(SequenceDiagramTest, AnnotationFormat) {
  const msc::Message m =
      message("NP", "RP", "OnReadRequest", 2, msc::Clock::kKs);
  EXPECT_EQ(m.annotation(), "OnReadRequest[2]()@K#");
  EXPECT_EQ(m.tick_lo(), 5);
  const msc::Message k = message("NP", "RP", "X", 1, msc::Clock::kK);
  EXPECT_EQ(k.tick_lo(), 2);
}

TEST(SequenceDiagramTest, ValidateOrderAndLifelines) {
  msc::Chart sd;
  sd.name = "s";
  sd.lifelines = {"A"};
  sd.items.push_back(
      msc::Item::of(message("A", "B", "op", 0, msc::Clock::kK)));  // unknown B
  sd.items.push_back(
      msc::Item::of(message("A", "A", "late", 0, msc::Clock::kK)));
  EXPECT_FALSE(sd.validate().empty());

  msc::Chart ordered;
  ordered.name = "o";
  ordered.lifelines = {"A"};
  ordered.items.push_back(
      msc::Item::of(message("A", "A", "second", 1, msc::Clock::kK)));
  ordered.items.push_back(  // goes back
      msc::Item::of(message("A", "A", "first", 0, msc::Clock::kK)));
  bool found_order_issue = false;
  for (const auto& issue : ordered.validate()) {
    if (issue.find("order") != std::string::npos) found_order_issue = true;
  }
  EXPECT_TRUE(found_order_issue);
}

TEST(DeriveTest, LatencyPropertiesFromFigure3) {
  const msc::Chart chart = core::read_mode_chart();
  EXPECT_TRUE(chart.validate().empty());
  const msc::MonitorSuite suite = msc::to_psl(chart);
  ASSERT_GE(suite.asserts.size(), 3u);
  // Request -> fetch is 2 ticks (1 K cycle).
  EXPECT_NE(suite.asserts[0].source.find("OnReadRequest[0]()@K"),
            std::string::npos);
  // The compiled property mentions the bound tap names.
  std::set<std::string> sigs;
  psl::collect_signals(*suite.asserts[0].prop, sigs);
  EXPECT_TRUE(sigs.count("b0.read_start"));
  EXPECT_TRUE(sigs.count("b0.fetch"));
}

TEST(DeriveTest, CoversPerMessage) {
  const msc::Chart chart = core::read_mode_chart();
  const msc::MonitorSuite suite = msc::to_psl(chart);
  // One occurrence cover per distinct mandatory message, plus the loop cover.
  EXPECT_GE(suite.covers.size(), chart.mandatory().size());
}

TEST(RenderTest, PlantUmlClassDiagram) {
  const std::string uml = to_plantuml(core::la1_class_diagram());
  EXPECT_NE(uml.find("@startuml"), std::string::npos);
  EXPECT_NE(uml.find("class SRAM_Memory"), std::string::npos);
  EXPECT_NE(uml.find("*--"), std::string::npos);  // composition
  EXPECT_NE(uml.find("1..4"), std::string::npos);  // bank multiplicity
}

TEST(La1Spec, ClassDiagramMatchesPaper) {
  const ClassDiagram cd = core::la1_class_diagram();
  EXPECT_TRUE(cd.validate().empty());
  // The paper's four principal classes plus the light simulator.
  EXPECT_NE(cd.find("WritePort"), nullptr);
  EXPECT_NE(cd.find("ReadPort"), nullptr);
  EXPECT_NE(cd.find("SRAM_Memory"), nullptr);
  EXPECT_NE(cd.find("LightSimulator"), nullptr);
}

TEST(La1Spec, ReadModeTicksMatchFigure3) {
  // The mandatory timeline; the trailing loop region is a cover goal.
  const msc::Chart chart = core::read_mode_chart();
  const std::vector<const msc::Message*> msgs = chart.mandatory();
  ASSERT_EQ(msgs.size(), 4u);
  EXPECT_EQ(msgs[0]->tick_lo(), 0);  // request at K(0)
  EXPECT_EQ(msgs[1]->tick_lo(), 2);  // SRAM at K(1)
  EXPECT_EQ(msgs[2]->tick_lo(), 4);  // beat0 at K(2)
  EXPECT_EQ(msgs[3]->tick_lo(), 5);  // beat1 at K#(2)
}

TEST(La1Spec, WriteModeValidates) {
  EXPECT_TRUE(core::write_mode_chart().validate().empty());
}

}  // namespace
}  // namespace la1::uml
