// Moderated classroom with the extension features: push delivery over
// long-polls (§3.2.3 alternative), presence notifications (§5.2.3 user
// feedback), a per-participant permission policy (§3.3), and a host behind
// NAT reached through port forwarding (§3.2.1).
//
// Build & run:  ./build/examples/moderated_classroom
// Exits 1 if any step fails to reach its expected state.
#include <cstdio>
#include <functional>

#include "src/net/profiles.h"
#include "src/sites/site_server.h"
#include "src/core/rcb_agent.h"
#include "src/core/ajax_snippet.h"

using namespace rcb;

namespace {
void MustOk(const char* what, const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

// Runs the loop until `done` holds. Parked long-polls keep the event queue
// busy with hold deadlines and re-polls, so a minute of simulated time bounds
// the wait; draining the queue or hitting that bound first is a failure.
void MustReach(EventLoop& loop, const char* what,
               const std::function<bool()>& done) {
  bool expired = false;
  uint64_t deadline =
      loop.Schedule(Duration::Seconds(60.0), [&] { expired = true; });
  bool reached = loop.RunUntilCondition([&] { return expired || done(); });
  loop.Cancel(deadline);
  if (!reached || !done()) {
    std::fprintf(stderr, "never reached: %s\n", what);
    std::exit(1);
  }
}
}  // namespace

int main() {
  EventLoop loop;
  Network network(&loop);

  // The instructor's laptop sits behind a home NAT; students connect to the
  // gateway's forwarded port.
  network.AddHost("home-gateway", {});
  network.AddHost("teacher-laptop", LanProfile().host_interface);
  network.SetBehindNat("teacher-laptop", "home-gateway");
  network.AddPortForward("home-gateway", 3000, "teacher-laptop", 3000);

  network.AddHost("www.lesson.test", {.uplink_bps = 20'000'000, .downlink_bps = 0});
  SiteServer lesson(&loop, &network, "www.lesson.test");
  lesson.ServeStatic("/", "text/html",
                     "<html><head><title>Lesson 4</title></head>"
                     "<body><h1>Operating systems</h1>"
                     "<a id=\"next\" href=\"/page2\">next page</a></body></html>");
  lesson.ServeStatic("/page2", "text/html",
                     "<html><head><title>Lesson 4 - page 2</title></head>"
                     "<body><h1>Scheduling</h1></body></html>");

  Browser teacher(&loop, &network, "teacher-laptop");
  AgentConfig config;
  // No poll ticks once joined: each student's first poll negotiates a
  // long-poll, the agent holds the next one, and content and broadcasts
  // release it on change.
  config.transport.enable_stream = true;
  // Moderation: student gestures are limited to pointer movement; anything
  // else (clicks, navigation, form input) is dropped.
  config.policies.participant_filter = [](const std::string&,
                                          const UserAction& action) {
    return action.type == ActionType::kMouseMove;
  };
  RcbAgent agent(&teacher, config);
  MustOk("agent start", agent.Start());
  std::printf("agent on %s behind NAT; students use http://home-gateway:3000/\n",
              teacher.machine().c_str());

  // Three students join; the earlier ones hear about each newcomer.
  std::vector<std::unique_ptr<Browser>> student_browsers;
  std::vector<std::unique_ptr<AjaxSnippet>> students;
  for (int i = 0; i < 3; ++i) {
    std::string machine = "student-" + std::to_string(i + 1);
    network.AddHost(machine, LanProfile().participant_interface);
    network.SetLatency("teacher-laptop", machine, Duration::Millis(2));
    network.SetLatency("home-gateway", machine, Duration::Millis(2));
    student_browsers.push_back(std::make_unique<Browser>(&loop, &network, machine));
    SnippetConfig student_config;
    // transport::kStreamFrames: long-poll, and a gesture pre-empts the
    // parked poll instead of waiting for its release.
    student_config.stream_mode = 2;
    students.push_back(std::make_unique<AjaxSnippet>(
        student_browsers.back().get(), student_config));
    bool joined = false;
    students.back()->Join(Url::Make("http", "home-gateway", 3000, "/"),
                          [&](Status status) {
                            MustOk("join", status);
                            joined = true;
                          });
    MustReach(loop, "student joined", [&] { return joined; });
  }
  MustReach(loop, "three parked long-polls",
            [&] { return agent.parked_poll_count() == 3; });
  MustReach(loop, "student 1 knows both peers",
            [&] { return students[0]->known_peers().size() == 2; });
  std::printf("3 students joined over long-polls; student 1 now knows %zu peers\n",
              students[0]->known_peers().size());

  // Teacher opens the lesson; it streams to everyone without a poll tick.
  bool loaded = false;
  teacher.Navigate(Url::Make("http", "www.lesson.test", 80, "/"),
                   [&](const Status& status, const PageLoadStats&) {
                     MustOk("lesson load", status);
                     loaded = true;
                   });
  MustReach(loop, "lesson loaded", [&] { return loaded; });
  for (auto& student : students) {
    MustReach(loop, "lesson on every student",
              [&] { return student->metrics().content_updates > 0; });
  }
  std::printf("lesson pushed to all students: '%s'\n",
              student_browsers[0]->document()->Title().c_str());

  // A student tries to skip ahead — moderation denies it.
  Element* link = student_browsers[1]->document()->ById("next");
  MustOk("student click", students[1]->ClickElement(link));
  loop.RunFor(Duration::Seconds(1.0));
  std::printf("student 2 clicked 'next page': teacher still on '%s' "
              "(%llu action(s) denied by policy)\n",
              teacher.document()->Title().c_str(),
              static_cast<unsigned long long>(agent.metrics().actions_denied));

  // Pointer movement is allowed and mirrored to the other students.
  int mirrored = 0;
  for (size_t i = 0; i < students.size(); ++i) {
    students[i]->SetActionListener([&](const UserAction& action) {
      if (action.type == ActionType::kMouseMove) {
        ++mirrored;
      }
    });
  }
  students[1]->SendMouseMove(300, 200);
  MustReach(loop, "pointer mirrored", [&] { return mirrored >= 2; });
  std::printf("student 2's pointer mirrored to %d other students\n", mirrored);

  // The teacher turns the page; one leaves; the rest hear about it.
  loaded = false;
  teacher.Navigate(Url::Make("http", "www.lesson.test", 80, "/page2"),
                   [&](const Status&, const PageLoadStats&) { loaded = true; });
  MustReach(loop, "page 2 loaded", [&] { return loaded; });
  MustReach(loop, "page 2 on student 3", [&] {
    return student_browsers[2]->document()->Title() == "Lesson 4 - page 2";
  });
  students[2]->Leave();
  MustReach(loop, "roster down to 2",
            [&] { return agent.participant_count() == 2; });
  std::printf("page 2 pushed; student 3 left; roster now %zu students\n",
              agent.participant_count());
  return 0;
}
