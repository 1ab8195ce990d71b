// The four experimental Web applications of the paper's evaluation
// (Section 5), re-created in the spec DSL:
//   E1 — online computer shopping (Dell-like; the running example),
//   E2 — Motorcycle Grand Prix browsing site (motogp.com-like),
//   E3 — airline reservation site (Expedia-like),
//   E4 — online bookstore (Barnes&Noble-like, WebML-provided in the paper).
//
// The DSL sources are the files under specs/: src/apps/CMakeLists.txt
// embeds them byte for byte at configure time (editing a .spec file
// re-runs the configure step). Each builder parses its embedded source,
// checks it validates and is input bounded, and returns the spec together
// with its property suite (P1…, with the expected verdicts the experiment
// harness asserts).
//
// E1 (specs/e1_shopping.spec; the paper's running example, Section 2.1 /
// Example 2.1). 19 pages, 4 database relations (arities 2,3,5,7), 10
// state relations (arities 0..5), 6 input relations (arities 1..5) plus 3
// text input constants, 5 action relations. Page map:
//   HP   home / login          RP   new-user registration
//   CP   customer home         LSP  laptop search (paper Example 2.1)
//   DSP  desktop search        PIP  product list (search results)
//   PDP  product detail        CC   cart contents
//   UPP  user payment page     OCP  order confirmation page
//   MOP  my-orders page        CCP  customer cancel page
//   ODP  order detail          AP   account page
//   CPW  change password       EP   error page (single link home)
//   HLP  help                  ABP  about
//   LOP  logged-out page
//
// E2 (specs/e2_motogp.spec). Pure browsing: 15 pages, 7 database
// relations, no state or action relations — representative of
// applications whose functionality is restricted to browsing without
// internal state changes. Page map: HP home; NWP news list; NDP news
// detail; GP grand prix calendar; GDP grand prix detail; CLP circuit
// list; CDP circuit detail; TMP teams; TDP team detail; PLP pilots; PDP
// pilot detail; BKP bikes; BDP bike detail; RSP results/standings; ABP
// about.
//
// E3 (specs/e3_airline.spec). 22 pages, 12 database relations (arities
// up to 10), 11 state relations, one action relation of arity 1. Page
// map:
//   HP home/login        REG register           ACC account
//   FSP flight search    FRP flight results     FDP flight detail
//   SSP seat selection   PSP passenger details  INP insurance
//   HTP hotels           CRP cars               CTP cart
//   PYP payment          CFP confirmation       MBP my bookings
//   BDP booking detail   CXP cancel booking     PRP promotions
//   HLP help             ABP about              EP error
//   LOP logged out
//
// E4 (specs/e4_bookstore.spec; in the paper this spec was provided by the
// WebML project members). 35 pages, 22 database relations (arities up to
// 14), 7 state relations. The bulk of the site is catalog browsing
// (genre/author/series/award/... list and detail pages over dedicated
// database relations); the commerce core is the usual search → detail →
// cart → checkout → payment → confirmation flow.
#ifndef WAVE_APPS_APPS_H_
#define WAVE_APPS_APPS_H_

#include <memory>
#include <string>
#include <vector>

#include "parser/parser.h"
#include "spec/web_app.h"

namespace wave {

/// A spec plus its property suite.
struct AppBundle {
  std::unique_ptr<WebAppSpec> spec;
  std::vector<ParsedProperty> properties;
};

/// DSL sources: the bytes of specs/e{1..4}_*.spec (`examples/spec_doctor
/// --demo` checks E1's).
const char* E1SpecText();
const char* E2SpecText();
const char* E3SpecText();
const char* E4SpecText();

/// Builders (WAVE_CHECK on parse/validation failure).
AppBundle BuildE1();
AppBundle BuildE2();
AppBundle BuildE3();
AppBundle BuildE4();

/// The property of `bundle` named `name`; null when the suite has none.
const Property* FindProperty(const AppBundle& bundle, const std::string& name);

}  // namespace wave

#endif  // WAVE_APPS_APPS_H_
